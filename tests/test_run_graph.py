"""A tests-side interpreter of an `OpGraph`, checked against the graph it runs.

`run_graph` executes a lowered network on N(0, 1) inputs with N(0, 1)
weights scaled by 1/sqrt(fan-in), the proxy's initialization. Convs run
through `conv2d_forward`; add, concat, nearest upsample, max-pool and
space_to_depth run as plain numpy; norm and activation are skipped, as the
proxy assumes, though their parameters are counted. The tests check every
executed shape against `out_shape`, the parameters and FLOPs counted from the
executed tensors against the cost rows, and each reparameterizable conv
against its fold on the tensor that reaches it.
"""
import math
import random
from dataclasses import replace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from detkit.cost import cost_rows
from detkit.genome import preset_genome
from detkit.graph import OpGraph, build_graph
from detkit.reparam import RepBranchParams, rep_branches_forward, reparam_fold
from detkit.tensorops import ConvParams, Tensor4, conv2d_forward

from test_reparam import make_bn
from test_search import random_genome

# test_reparam's fold bound on unit-scale features, here relative to the
# largest output of the block, since features deep in a network are larger
FOLD_TOL = 1e-5


class Run(NamedTuple):
    """Per node id: the executed output, its convs' weights (None for other
    kinds), and the parameters and FLOPs counted from the executed tensors."""

    values: list
    weights: list
    params: list
    flops: list


def fan_in_weights(rng, out_ch: int, in_ch: int, kernel: int) -> np.ndarray:
    return (rng.standard_normal((out_ch, in_ch, kernel, kernel)) / math.sqrt(in_ch * kernel * kernel)).astype(
        np.float32)


def _maxpool(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    # a stride-1 pool pads with -inf to keep its dims; a stride-2 pool does not pad
    pad = kernel // 2 if stride == 1 else 0
    x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=-np.inf)
    return sliding_window_view(x, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride].max(axis=(-2, -1))


def run_graph(graph: OpGraph, rng: np.random.Generator) -> Run:
    run = Run([], [], [], [])
    for n in graph.nodes:
        xs = [run.values[src] for src in n.inputs]
        weights, params, flops = None, 0, 0
        if n.kind == "input":
            y = rng.standard_normal(n.out_shape).astype(np.float32)
        elif n.kind == "conv":
            out_ch, fan_in = n.out_shape[1], xs[0].shape[1] // n.groups
            weights = fan_in_weights(rng, out_ch, fan_in, n.kernel)
            y = conv2d_forward(Tensor4(xs[0]), ConvParams(weights, np.zeros(out_ch), stride=n.stride,
                                                          padding=n.kernel // 2, groups=n.groups)).data
            # the bias, and the norm's scale and shift, are parameters the forward skips
            params = weights.size + out_ch * (n.bias + 2 * n.norm)
            flops = 2 * y.size * weights[0].size  # one multiply-add per weight of each output's filter
        elif n.kind == "add":
            y = sum(xs[1:], xs[0])
            flops = y.size
        elif n.kind == "concat":
            y = np.concatenate(xs, axis=1)
            flops = y.size
        elif n.kind == "upsample":
            y = xs[0].repeat(2, axis=2).repeat(2, axis=3)
        elif n.kind == "maxpool":
            y = _maxpool(xs[0], n.kernel, n.stride)
        elif n.kind == "space_to_depth":
            x = xs[0]
            y = np.concatenate([x[:, :, ::2, ::2], x[:, :, 1::2, ::2], x[:, :, ::2, 1::2], x[:, :, 1::2, 1::2]], axis=1)
        else:
            raise AssertionError(f"no rule for node kind {n.kind!r}")
        for column, value in zip(run, (y, weights, params, flops)):
            column.append(value)
    return run


def check_shapes_and_costs(graph: OpGraph, run: Run) -> None:
    for n, y, params, flops, row in zip(graph.nodes, run.values, run.params, run.flops, cost_rows(graph),
                                        strict=True):
        assert y.shape == n.out_shape, n.name
        assert (params, flops) == (row.params, row.flops), n.name


class TestRunGraph:
    def test_s_shapes_costs_and_rep_folds(self):
        genome = replace(preset_genome("s"), input_res=(256, 256))
        assert genome.neck.fusion_style == "CspReparamElan"
        graph = build_graph(genome)
        rng = np.random.default_rng(0)
        run = run_graph(graph, rng)
        check_shapes_and_costs(graph, run)
        rep = [nid for nid, n in enumerate(graph.nodes) if n.rep]
        assert len(rep) == 24
        for nid in rep:
            n, x = graph.nodes[nid], Tensor4(run.values[graph.nodes[nid].inputs[0]])
            in_ch, out_ch = x.dims[1], n.out_shape[1]
            assert n.kernel == 3 and n.groups == 1
            branches = RepBranchParams(
                conv3=ConvParams(run.weights[nid], np.zeros(out_ch), stride=n.stride, padding=1),
                bn3=make_bn(rng, out_ch),
                conv1=ConvParams(fan_in_weights(rng, out_ch, in_ch, 1), np.zeros(out_ch), stride=n.stride),
                bn1=make_bn(rng, out_ch),
                identity_bn=make_bn(rng, out_ch) if in_ch == out_ch and n.stride == 1 else None)
            multi = rep_branches_forward(x, branches).data
            single = conv2d_forward(x, reparam_fold(branches)).data
            assert multi.shape == single.shape == n.out_shape
            assert np.abs(multi - single).max() <= FOLD_TOL * max(1.0, float(np.abs(multi).max())), n.name

    def test_every_stage_kind_and_fusion_style(self):
        # random genomes draw every stage kind (grouped Mob convs, Focus's
        # space_to_depth, Spp's stride-1 pools), fusion style and dense link
        rng = random.Random(3)
        genomes = [preset_genome("tiny")] + [random_genome(rng) for _ in range(8)]
        kinds = set()
        for i, genome in enumerate(genomes):
            graph = build_graph(genome)
            check_shapes_and_costs(graph, run_graph(graph, np.random.default_rng(i)))
            kinds |= {n.kind for n in graph.nodes}
        assert kinds == {"input", "conv", "add", "concat", "upsample", "maxpool", "space_to_depth"}

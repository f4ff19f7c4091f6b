"""Golden likelihood centres: fixed-seed outputs pinned across rewrites.

The differential oracles share code paths with what they check (the
reference harness calls the scorer under test), so a scorer rewrite that
flips an exact tie would pass them.  These literals were captured before
the tree path moved to parent positions; a change to any of them is a
change of behaviour.  A K = 0 row estimates with the likelihood centre
alone, so no change to the respondents or estimators moves it; the K > 0
rows of ``SWEEPS`` pin the answer streams and the estimators too.
"""

import hashlib

import numpy as np
import pytest

from rqsim.centrality import likelihood_table, pick_best
from rqsim.cli import main
from rqsim.diffusion import simulate_si
from rqsim.graphs import make_erdos_renyi, make_galton_watson, make_regular_tree, make_scale_free

N = 60

BUILDERS = {
    "regular:3": lambda rng: make_regular_tree(3),
    "gw:6": lambda rng: make_galton_watson(6, 4 * N, rng),
    "er:120:4": lambda rng: make_erdos_renyi(120, 4.0, rng),
    "sf:120:1.5": lambda rng: make_scale_free(120, 1.5, rng),
}

#: Likelihood centre of the snapshot drawn from ``default_rng(seed)``, seeds 0..29.
CENTRES = {
    "regular:3": [3, 2, 3, 0, 6, 1, 2, 3, 3, 12, 0, 6, 3, 0, 1, 0, 2, 3, 0, 2,
                  3, 1, 2, 1, 2, 0, 2, 4, 9, 0],
    "gw:6": [4, 2, 4, 0, 1, 6, 1, 0, 3, 0, 4, 6, 3, 0, 1, 0, 4, 0, 0, 3,
             4, 4, 4, 3, 5, 1, 0, 9, 4, 6],
    "er:120:4": [97, 98, 24, 52, 94, 29, 98, 28, 51, 52, 111, 53, 108, 62, 24, 98, 108, 26, 116, 13,
                 59, 37, 100, 32, 45, 38, 43, 29, 72, 49],
    "sf:120:1.5": [45, 34, 67, 45, 34, 73, 41, 31, 70, 31, 42, 31, 47, 55, 36, 69, 13, 55, 73, 49,
                   17, 35, 93, 24, 72, 61, 101, 22, 89, 57],
}

HEADER = "scheme,graph,d,n,K,r,p,q,trials,detections,p_hat,ci_lo,ci_hi,mean_budget,wall_time_ms"

#: The K = 0 row of ``simulate --n 60 --trials 30 --seed 5 --zero-timing``.
ROWS = {
    "regular:3": "na,regular:3,3,60,0,0,0.8,0.8,30,8,0.266667,0.141825,0.444483,0,0",
    "gw:6": "na,gw:6,6,60,0,0,0.8,0.8,30,1,0.033333,0.005908,0.166708,0,0",
    "er:120:4": "na,er:120:4,4,60,0,0,0.8,0.8,30,1,0.033333,0.005908,0.166708,0,0",
    "sf:120:1.5": "na,sf:120:1.5,3,60,0,0,0.8,0.8,30,1,0.033333,0.005908,0.166708,0,0",
}


@pytest.mark.parametrize("family", sorted(BUILDERS))
def test_likelihood_centres(family):
    centres = []
    for seed in range(30):
        rng = np.random.default_rng(seed)
        graph = BUILDERS[family](rng)
        source = int(rng.integers(graph.n)) if graph.is_finite else 0
        table = likelihood_table(simulate_si(graph, source, N, rng))
        centres.append(pick_best(table, table))
    assert centres == CENTRES[family]


@pytest.mark.parametrize("family", sorted(ROWS))
def test_no_query_row(capsys, family):
    code = main(["simulate", "--graph", family, "--n", str(N), "--scheme", "na", "--k", "0",
                 "--p", "0.8", "--q", "0.8", "--trials", "30", "--seed", "5", "--threads", "1",
                 "--zero-timing"])
    assert code == 0
    assert capsys.readouterr().out == f"{HEADER}\n{ROWS[family]}\n"


#: The rows of ``simulate --n 60 --trials 30 --seed 5 --zero-timing --k 0,20,60``,
#: captured before the batch vote, descendant counts, hop order and respondent
#: lookups were rewritten; K > 0 rows read the answer streams.
SWEEPS = {
    ("na", "regular:3"): [
        "na,regular:3,3,60,0,0,0.8,0.8,30,8,0.266667,0.141825,0.444483,0,0",
        "na,regular:3,3,60,20,1,0.8,0.8,30,18,0.6,0.423201,0.754096,20,0",
        "na,regular:3,3,60,60,1,0.8,0.8,30,15,0.5,0.331539,0.668461,60,0",
    ],
    ("na", "gw:6"): [
        "na,gw:6,6,60,0,0,0.8,0.8,30,1,0.033333,0.005908,0.166708,0,0",
        "na,gw:6,6,60,20,1,0.8,0.8,30,2,0.066667,0.018477,0.213238,20,0",
        "na,gw:6,6,60,60,1,0.8,0.8,30,7,0.233333,0.117922,0.409287,60,0",
    ],
    ("na", "er:120:4"): [
        "na,er:120:4,4,60,0,0,0.8,0.8,30,1,0.033333,0.005908,0.166708,0,0",
        "na,er:120:4,4,60,20,1,0.8,0.8,30,11,0.366667,0.218737,0.544868,20,0",
        "na,er:120:4,4,60,60,1,0.8,0.8,30,12,0.4,0.245904,0.576799,60,0",
    ],
    ("na", "sf:120:1.5"): [
        "na,sf:120:1.5,3,60,0,0,0.8,0.8,30,1,0.033333,0.005908,0.166708,0,0",
        "na,sf:120:1.5,3,60,20,1,0.8,0.8,30,10,0.333333,0.192303,0.512203,20,0",
        "na,sf:120:1.5,3,60,60,1,0.8,0.8,30,10,0.333333,0.192303,0.512203,60,0",
    ],
    ("ad", "regular:3"): [
        "ad,regular:3,3,60,0,0,0.8,0.8,30,8,0.266667,0.141825,0.444483,0,0",
        "ad,regular:3,3,60,20,1,0.8,0.8,30,24,0.8,0.62694,0.90495,20,0",
        "ad,regular:3,3,60,60,1,0.8,0.8,30,29,0.966667,0.833292,0.994092,60,0",
    ],
    ("ad", "gw:6"): [
        "ad,gw:6,6,60,0,0,0.8,0.8,30,1,0.033333,0.005908,0.166708,0,0",
        "ad,gw:6,6,60,20,2,0.8,0.8,30,7,0.233333,0.117922,0.409287,20,0",
        "ad,gw:6,6,60,60,2,0.8,0.8,30,6,0.2,0.09505,0.37306,60,0",
    ],
    ("ad", "er:120:4"): [
        "ad,er:120:4,4,60,0,0,0.8,0.8,30,1,0.033333,0.005908,0.166708,0,0",
        "ad,er:120:4,4,60,20,1,0.8,0.8,30,15,0.5,0.331539,0.668461,20,0",
        "ad,er:120:4,4,60,60,1,0.8,0.8,30,20,0.666667,0.487797,0.807697,60,0",
    ],
    ("ad", "sf:120:1.5"): [
        "ad,sf:120:1.5,3,60,0,0,0.8,0.8,30,1,0.033333,0.005908,0.166708,0,0",
        "ad,sf:120:1.5,3,60,20,1,0.8,0.8,30,8,0.266667,0.141825,0.444483,20,0",
        "ad,sf:120:1.5,3,60,60,1,0.8,0.8,30,9,0.3,0.166646,0.478761,60,0",
    ],
}


@pytest.mark.parametrize("scheme,family", sorted(SWEEPS))
def test_query_rows(capsys, scheme, family):
    code = main(["simulate", "--graph", family, "--n", str(N), "--scheme", scheme, "--k", "0,20,60",
                 "--p", "0.8", "--q", "0.8", "--trials", "30", "--seed", "5", "--threads", "1",
                 "--zero-timing"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [HEADER, *SWEEPS[scheme, family]]


#: sha256 of ``repr`` of the adjacency lists of ``make_scale_free(300, 8.0,
#: default_rng(7))``, captured from the scalar generator (one
#: ``rng.integers`` call per pick).
SF_300_8_SEED_7 = "04243c21e096ca21d2fa557d909f3e3f3efd8bfcae6cc3dbdfa1109a9ab9a8cc"


def test_dense_scale_free_adjacency():
    g = make_scale_free(300, 8.0, np.random.default_rng(7))
    adjacency = [g.neighbors(v) for v in range(g.n)]
    assert hashlib.sha256(repr(adjacency).encode()).hexdigest() == SF_300_8_SEED_7


#: sha256 of ``repr((infected, parent_pos))`` of ``simulate_si(make_regular_tree(d),
#: 0, 400, default_rng(seed))``, captured from the scalar loop (one
#: ``rng.integers`` call per pick).
REGULAR_TREE_SNAPSHOTS = {
    (3, 0): "a764d9534b77377cf914b2bb52d2f69b0de63cf2b7454d2810c18c92fbf4be3d",
    (3, 1): "92c8583d99e4d96b3c205e9c9c6a3dd5e6e519584e610a41a07dc4be530f4ee2",
    (3, 2): "d8f6616b80d911252870af5ef60e6d82454841771499f529c3368f967a911511",
    (5, 0): "ae1f40d85b99086b582b4c50dd2b73c4bae060d51f68e58b158a70586314e28b",
    (5, 1): "5e31c62bd52b3235c1534e139a543efa983f916fc0c7280117eeca87c8eb7818",
    (5, 2): "c84f2911e230224d3ca92a0acae27ce837ff9ea783e1a983ede8b82234f1db48",
}


@pytest.mark.parametrize("d,seed", sorted(REGULAR_TREE_SNAPSHOTS))
def test_regular_tree_snapshot(d, seed):
    snap = simulate_si(make_regular_tree(d), 0, 400, np.random.default_rng(seed))
    digest = hashlib.sha256(repr((snap.infected, list(snap.parent_pos))).encode()).hexdigest()
    assert digest == REGULAR_TREE_SNAPSHOTS[d, seed]


#: sha256 of the output of ``simulate --graph regular:3 --n 400 --rstar
#: sufficient --trials 30 --threads 1 --zero-timing``, na at K = 0, 50, 100,
#: 200, 400 and ad at K = 50, 100, 200, 400: the benchmark's tree sweep at
#: its own size.  At (0.7, 0.6) r runs from 2 to 5, so these rows hold many
#: even-r votes, all-"yes" batch votes and walk steps without a usable
#: designation.  Captured before the respondent table became the estimators'
#: one neighbour source.
TREE_SWEEPS = {
    (0.8, 0.8, 1, "na"): "a42901754acbb5855357f88650550e0fb48ad0a1a5820a36cc1e162d85dfe27c",
    (0.8, 0.8, 1, "ad"): "c488d86bc0724318785b986ac10b44446dc2901b3b363f653a922d732537747d",
    (0.8, 0.8, 2, "na"): "0bb2bcc73e859bfc9f9e9143dfa855cf5f5d40cad129423a9bb30fc2aacb852c",
    (0.8, 0.8, 2, "ad"): "2ad514fb8800c3c3466ea642029e44f65298abb66f6c0cb67ea0bd3293d5d42e",
    (0.7, 0.6, 1, "na"): "b083e204ce386f7094415cb6cdce55ba790d5e5940d6c9b1e545283c880b077f",
    (0.7, 0.6, 1, "ad"): "dff614ba8e5b710d23c6e395ca4e87d8909648dff3bfadbf8f155a5d582894db",
    (0.7, 0.6, 2, "na"): "4b34978d4d3574a32cf923a6fd3055ad8423e7fccd38436d90b43a76fcea9dc1",
    (0.7, 0.6, 2, "ad"): "bbbdec82b24743519b1e366361e4e46d08517716a19ad5119dd46e1a76bad18e",
}


@pytest.mark.parametrize("p,q,seed,scheme", sorted(TREE_SWEEPS))
def test_tree_sweep_at_benchmark_size(capsys, p, q, seed, scheme):
    budgets = "0,50,100,200,400" if scheme == "na" else "50,100,200,400"
    code = main(["simulate", "--graph", "regular:3", "--n", "400", "--scheme", scheme, "--k", budgets,
                 "--rstar", "sufficient", "--p", str(p), "--q", str(q), "--trials", "30",
                 "--seed", str(seed), "--threads", "1", "--zero-timing"])
    assert code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == TREE_SWEEPS[p, q, seed, scheme]

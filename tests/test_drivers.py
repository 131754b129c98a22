import numpy as np
import pytest

from zerocontrol import (
    PatternMatrix,
    build_b_pattern,
    build_graph,
    enumerate_minimal_driver_sets,
    find_cycle,
    greedy_driver_set,
    is_generically_zero_controllable,
    minimal_driver_set,
    reachable_from,
    scc_decompose,
    validate_driver_set,
)
from zerocontrol.drivers import ExactSearchSkipped
from conftest import cover_instance, random_square_patterns
from oracles import oracle_minimum_driver_sets


def drivers_as_indices(ds):
    return frozenset(int(v[1:]) for v in ds.drivers)


# --- validation ----------------------------------------------------------------

def test_validate_rejects_x1_x5(example2_a):
    ds = validate_driver_set(example2_a, {"x1", "x5"})
    assert not ds.valid
    assert set(ds.nontrivial_unreachable_components) == {
        frozenset({"x4"}),
        frozenset({"x6", "x7"}),
    }
    assert ds.uncovered_witness in (
        (("x4", "x4"),),
        (("x6", "x7"), ("x7", "x6")),
    )


def test_validate_rejects_x1_x5_x7(example2_a):
    ds = validate_driver_set(example2_a, {"x1", "x5", "x7"})
    assert not ds.valid
    assert ds.uncovered_witness == (("x4", "x4"),)
    assert ds.nontrivial_unreachable_components == (frozenset({"x4"}),)


def test_validate_accepts_x4_x5_x6(example2_a):
    ds = validate_driver_set(example2_a, {"x4", "x5", "x6"})
    assert ds.valid
    assert ds.uncovered_witness is None
    assert not ds.minimal  # validation alone never claims minimality


def test_validate_rejects_unknown_vertices(example2_a):
    with pytest.raises(ValueError, match="unknown vertex 'x12'"):
        validate_driver_set(example2_a, {"x12"})
    with pytest.raises(ValueError, match="must be states"):
        validate_driver_set(example2_a, {"u1"})


def test_a_bare_string_is_refused_whole(example2_a):
    """Each vertex-collection argument refuses one string, whose iteration would read
    its characters as the names ('x' and '3'), with one message that quotes it whole;
    the one-element collection it stands for is accepted."""
    graph = build_graph(example2_a)
    calls = [
        lambda names: validate_driver_set(example2_a, names),
        lambda names: build_b_pattern(11, names, "shared"),
        lambda names: reachable_from(graph, names),
        lambda names: find_cycle(graph, within=names),
    ]
    for call in calls:
        with pytest.raises(TypeError, match=r"^expected a collection of vertex names, got the string 'x3'$"):
            call("x3")
        call(["x3"])


# --- minimal driver sets ----------------------------------------------------------

def test_minimal_on_acyclic_pattern_is_empty():
    p = PatternMatrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    ds = minimal_driver_set(p)
    assert ds.drivers == frozenset()
    assert ds.valid and ds.minimal and ds.size == 0


def test_minimal_example2(example2_a):
    ds = minimal_driver_set(example2_a)
    assert ds.size == 2
    assert "x4" in ds.drivers
    assert ds.drivers == frozenset({"x4", "x8"})  # lexicographically smallest optimum
    assert ds.valid and ds.minimal


def test_minimal_example1(example1_a):
    # x5 reaches x3, x1 and x2, so it alone covers every cycle
    ds = minimal_driver_set(example1_a)
    assert ds.drivers == frozenset({"x5"})
    assert ds.valid and ds.minimal


def test_minimal_two_disjoint_self_loops():
    p = PatternMatrix(2, 2, frozenset({(1, 1), (2, 2)}))
    ds = minimal_driver_set(p)
    assert ds.drivers == frozenset({"x1", "x2"})


# --- enumeration ----------------------------------------------------------------

def test_enumerate_example2(example2_a):
    sets = enumerate_minimal_driver_sets(example2_a)
    listed = [ds.sorted_drivers() for ds in sets]
    assert listed == [
        ["x4", "x8"],
        ["x4", "x9"],
        ["x4", "x10"],
        ["x4", "x11"],
    ]
    assert all(ds.valid and ds.minimal and ds.size == 2 for ds in sets)


def test_enumerate_acyclic_yields_empty_set():
    p = PatternMatrix.zeros(3, 3)
    sets = enumerate_minimal_driver_sets(p)
    assert len(sets) == 1 and sets[0].drivers == frozenset()


def test_enumerate_single_self_loop():
    p = PatternMatrix(1, 1, frozenset({(1, 1)}))
    sets = enumerate_minimal_driver_sets(p)
    assert [ds.drivers for ds in sets] == [frozenset({"x1"})]


def test_enumerate_respects_limit(example2_a):
    sets = enumerate_minimal_driver_sets(example2_a, limit=2)
    assert [ds.sorted_drivers() for ds in sets] == [["x4", "x8"], ["x4", "x9"]]
    with pytest.raises(ValueError, match="limit must be >= 1"):
        enumerate_minimal_driver_sets(example2_a, limit=0)


def test_enumerate_expands_components():
    # one 2-cycle: either of its vertices is a minimum driver set
    p = PatternMatrix.from_rows([[0, 1], [1, 0]])
    sets = enumerate_minimal_driver_sets(p)
    assert [ds.drivers for ds in sets] == [frozenset({"x1"}), frozenset({"x2"})]



def _tied_patterns(seed: int, count: int):
    """Disjoint 2- and 3-cycles fed by shared feeder states, n <= 9, with the
    states shuffled so that the expansions of different component covers
    interleave in lex order."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        lengths = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3)][int(rng.integers(0, 5))]
        cycles, entries, n = [], set(), 0
        for length in lengths:
            nodes = list(range(n + 1, n + length + 1))
            n += length
            entries |= {(dst, src) for src, dst in zip(nodes, nodes[1:] + nodes[:1])}
            cycles.append(nodes)
        for _ in range(int(rng.integers(1, 10 - n))):
            n += 1
            fed = rng.choice(len(cycles), size=int(rng.integers(1, 3)), replace=False)
            entries |= {(int(rng.choice(cycles[t])), n) for t in fed}
        perm = [0] + [int(v) + 1 for v in rng.permutation(n)]
        out.append(PatternMatrix(n, n, frozenset((perm[i], perm[j]) for i, j in entries)))
    return out


def test_enumeration_lists_the_oracle_sets_in_lex_order():
    patterns = random_square_patterns(seed=909, count=60, max_n=9) + _tied_patterns(seed=5, count=40)
    for p in patterns:
        _, all_sets = oracle_minimum_driver_sets(p)  # itertools.combinations order: lex
        listed = enumerate_minimal_driver_sets(p, limit=10**6)
        assert [sorted(drivers_as_indices(ds)) for ds in listed] == [sorted(s) for s in all_sets]
        assert listed[0] == minimal_driver_set(p)


def test_enumeration_cost_follows_the_limit():
    """Three disjoint 1000-cycles have 10**9 minimum driver sets; the first
    five in lex order come out without expanding the others."""
    n = 3000
    a = PatternMatrix(n, n, frozenset(
        (c * 1000 + v % 1000 + 1, c * 1000 + v) for c in range(3) for v in range(1, 1001)
    ))
    listed = enumerate_minimal_driver_sets(a, limit=5)
    assert [ds.sorted_drivers() for ds in listed] == [
        ["x1", "x1001", f"x{2000 + v}"] for v in range(1, 6)
    ]


def test_states_with_equal_coverage_form_one_candidate():
    """Twelve self-loops x1, x4, ..., x34, each with two private feeders: a
    loop and its feeders reach the same cycle, so the 36 states that reach a
    cycle form 12 candidates and the 3**12 minimum driver sets come from a
    single cover."""
    from zerocontrol import drivers

    t = 12
    a = PatternMatrix(3 * t, 3 * t, frozenset(
        (3 * c + 1, 3 * c + d) for c in range(t) for d in (1, 2, 3)
    ))
    problem = drivers._cover_problem(a)
    assert problem.members == tuple((3 * c + 1, 3 * c + 2, 3 * c + 3) for c in range(t))
    covers = drivers._min_covers(problem, -1, problem.full_mask, t)  # -1 allows every class
    assert len(list(covers)) == 1
    listed = enumerate_minimal_driver_sets(a, 5, exact_cap=100)
    loops = [f"x{3 * c + 1}" for c in range(t - 2)]
    assert [ds.sorted_drivers() for ds in listed] == [
        loops + last for last in (
            ["x31", "x34"], ["x31", "x35"], ["x31", "x36"], ["x32", "x34"], ["x32", "x35"]
        )
    ]
    assert all(ds.valid and ds.minimal for ds in listed)


def test_enumeration_checks_one_certificate_per_cover(monkeypatch):
    """The twelve self-loops above: the five listed sets come from one class
    cover, so one obstruction check certifies them all."""
    from zerocontrol import drivers

    calls = []
    check = drivers._obstruction
    monkeypatch.setattr(drivers, "_obstruction", lambda *args: calls.append(args) or check(*args))
    t = 12
    a = PatternMatrix(3 * t, 3 * t, frozenset(
        (3 * c + 1, 3 * c + d) for c in range(t) for d in (1, 2, 3)
    ))
    listed = enumerate_minimal_driver_sets(a, 5, exact_cap=100)
    assert len(calls) == 1
    assert len({ds.drivers for ds in listed}) == 5
    for ds in listed:  # each set carries its own names and the shared certificate
        alone = validate_driver_set(a, ds.drivers)
        assert (ds.valid, ds.uncovered_witness, ds.nontrivial_unreachable_components) == (
            alone.valid, alone.uncovered_witness, alone.nontrivial_unreachable_components
        )


def test_a_limit_past_sys_maxsize_means_all(example2_a):
    listed = enumerate_minimal_driver_sets(example2_a, 2**63)
    assert listed == enumerate_minimal_driver_sets(example2_a, 100)
    assert len(listed) == 4


def _unpruned_covers(problem, allowed, uncovered, budget):
    """The search without dominance: every branch of the scarcest target's
    coverers, widest first, each candidate used in one branch only."""
    if uncovered == 0:
        yield ()
        return
    by_target = [problem.coverers[t] & allowed for t in range(len(problem.coverers)) if uncovered >> t & 1]
    if budget <= 0 or not all(by_target):
        return
    scarcest = min(by_target, key=int.bit_count)
    for c in sorted((c for c in range(len(problem.coverage)) if scarcest >> c & 1),
                    key=lambda c: -problem.coverage[c].bit_count()):
        allowed &= ~(1 << c)
        for rest in _unpruned_covers(problem, allowed, uncovered & ~problem.coverage[c], budget - 1):
            yield (c,) + rest


def test_dominance_pruning_loses_no_cover():
    """Skipping the coverers dominated by a failed sibling changes neither the
    probe's answer nor the covers listed, or their order: at every budget up
    to the optimum and one past it, with every candidate allowed and with
    only the candidates after each one."""
    from zerocontrol import drivers

    rng = np.random.default_rng(2020)
    answers, covers = set(), 0
    for _ in range(60):
        problem = drivers._cover_problem(cover_instance(rng, max_targets=12))
        every, full = -1, problem.full_mask  # candidate sets are bitmasks; -1 allows all
        optimum = next(b for b in range(len(problem.coverage) + 1)
                       if next(_unpruned_covers(problem, every, full, b), None) is not None)
        for allowed in [every] + [every << (c + 1) for c in range(len(problem.coverage))]:
            for budget in range(optimum + 2):
                listed = list(drivers._min_covers(problem, allowed, full, budget))
                assert listed == list(_unpruned_covers(problem, allowed, full, budget))
                assert drivers._feasible(problem, allowed, full, budget) == bool(listed)
                answers.add(bool(listed))
                covers += len(listed)
    assert answers == {True, False} and covers > 1000


def test_minimal_set_is_the_first_enumerated_set():
    rng = np.random.default_rng(2021)
    for _ in range(200):
        a = cover_instance(rng, max_targets=26)
        assert minimal_driver_set(a, exact_cap=80) == enumerate_minimal_driver_sets(a, 1, exact_cap=80)[0]


def _tied_groups(count):
    """Independent groups of three self-loops a, b, c with feeders of {a, b},
    {b, c} and {a, c}: the packing bound is 1 per group, the optimum 2."""
    entries = set()
    for g in range(count):
        a, b, c, ab, bc, ac = range(6 * g + 1, 6 * g + 7)
        entries |= {(a, a), (b, b), (c, c), (a, ab), (b, ab), (b, bc), (c, bc), (a, ac), (c, ac)}
    return PatternMatrix(6 * count, 6 * count, frozenset(entries))


def test_tied_groups_probe_node_count(monkeypatch):
    """Each tied group is an independent block of 3 targets and 6 classes:
    its deepening refutes budgets 0 and 1 and its lex probes fix 2 members,
    in 4 node checks (a search left with no budget and targets to cover
    fails unchecked), so the search grows linearly in the number of groups
    (the search over all six groups at once took 1323).  A count of node
    checks pins the search's size, not its speed."""
    from zerocontrol import drivers

    nodes = []
    check = drivers._node
    monkeypatch.setattr(drivers, "_node", lambda *args: nodes.append(args) or check(*args))
    for groups in (6, 16):
        nodes.clear()
        ds = minimal_driver_set(_tied_groups(groups))
        assert ds.size == 2 * groups and ds.minimal
        assert ds.sorted_drivers() == [f"x{6 * g + v}" for g in range(groups) for v in (1, 5)]
        assert len(nodes) == 4 * groups


def _kernel_pattern(rng, max_n=16):
    """Pieces drawn until about max_n states, then shuffled: a cycle with
    private feeders (a forced class), two cycles with a shared feeder (a
    block), a tied group of three loops, or a root cycle whose path ends in a
    downstream cycle (a target below a root) that may have a feeder of its
    own.  Sometimes a feeder also enters the previous piece's first cycle,
    which joins the two pieces' blocks."""
    edges, n, last = set(), 0, None

    def cycle():
        nonlocal n
        nodes = list(range(n + 1, n + int(rng.integers(1, 3)) + 1))
        n = nodes[-1]
        edges.update(zip(nodes, nodes[1:] + nodes[:1]))
        return nodes[0]

    def feeder(*heads):
        nonlocal n
        n += 1
        edges.update((n, h) for h in heads)
        return n

    while n < max_n - 5:
        kind = int(rng.integers(0, 4))
        if kind == 0:
            head = cycle()
            for _ in range(int(rng.integers(0, 3))):
                feeder(head)
        elif kind == 1:
            head, other = cycle(), cycle()
            feeder(head, other)
            if rng.random() < 0.5:
                feeder(head)
        elif kind == 2:
            head, b, c = (feeder() for _ in range(3))
            edges.update({(head, head), (b, b), (c, c)})
            for pair in ((head, b), (b, c), (head, c)):
                feeder(*pair)
        else:
            head = cycle()
            f = feeder()
            edges.add((head, f))
            downstream = cycle()
            edges.add((f, downstream))
            if rng.random() < 0.5:
                feeder(downstream)
        if last is not None and rng.random() < 0.3:
            feeder(last, head)
        last = head
    perm = rng.permutation(n) + 1
    return PatternMatrix(n, n, frozenset((int(perm[d - 1]), int(perm[s - 1])) for s, d in edges))


def test_kernelized_search_matches_the_exhaustive_oracle():
    """Forced classes, independent blocks, tied groups and targets below a
    root: the selected set and the enumeration at limits 1, 5 and all are
    the oracle's lex-first minimum sets."""
    from zerocontrol import drivers

    rng = np.random.default_rng(3232)
    seen = {"forced": 0, "blocks": 0, "downstream": 0}
    for _ in range(100):
        p = _kernel_pattern(rng)
        size, all_sets = oracle_minimum_driver_sets(p)
        expected = [sorted(s) for s in all_sets]
        ds = minimal_driver_set(p)
        assert ds.minimal and ds.size == size and sorted(drivers_as_indices(ds)) == expected[0]
        for limit in (1, 5, 10**6):
            listed = enumerate_minimal_driver_sets(p, limit)
            assert [sorted(drivers_as_indices(e)) for e in listed] == expected[:limit]
        problem = drivers._cover_problem(p)
        forced, blocks = drivers._kernel(problem)
        scc = problem.graph.condensation
        seen["forced"] += bool(forced)
        seen["blocks"] += len(blocks) >= 2
        seen["downstream"] += sum(scc.nontrivial) > problem.full_mask.bit_length()
    assert min(seen.values()) >= 40, seen


# --- greedy ----------------------------------------------------------------------

def test_greedy_example2(example2_a):
    ds = greedy_driver_set(example2_a)
    assert ds.valid and not ds.minimal
    assert ds.size == 2
    assert "x4" in ds.drivers
    (other,) = ds.drivers - {"x4"}
    assert other in {"x8", "x9", "x10", "x11"}


def test_greedy_acyclic_and_disjoint_loops():
    assert greedy_driver_set(PatternMatrix.zeros(2, 2)).drivers == frozenset()
    two_loops = PatternMatrix(2, 2, frozenset({(1, 1), (2, 2)}))
    assert greedy_driver_set(two_loops).size == 2


# --- exact-search size guard --------------------------------------------------------

def _many_self_loops(count):
    return PatternMatrix(count, count, frozenset((i, i) for i in range(1, count + 1)))


def _nested_chain(count):
    """A chain x1 -> ... -> xk whose states each feed a private self-loop
    x(k+i): every loop is a root target, xi covers loops i..k, so the
    coverages nest and the 2k - 1 classes form one block with nothing
    forced.  x1 alone is the minimum (and the greedy) driver set."""
    entries = {(count + i, i) for i in range(1, count + 1)} | {(count + i, count + i) for i in range(1, count + 1)}
    return PatternMatrix(2 * count, 2 * count, frozenset(entries | {(i + 1, i) for i in range(1, count)}))


def test_exact_cap_falls_back_to_greedy():
    p = _nested_chain(15)  # a block of 29 classes
    with pytest.warns(ExactSearchSkipped, match="^29 coverage classes in one independent block exceed"):
        ds = minimal_driver_set(p)
    assert ds.valid and not ds.minimal
    assert ds.drivers == frozenset({"x1"})  # greedy is still exact here, flag stays conservative
    with pytest.warns(ExactSearchSkipped):
        sets = enumerate_minimal_driver_sets(p)
    assert len(sets) == 1 and not sets[0].minimal


def test_forced_classes_take_no_search():
    """Thirty self-loops are thirty forced classes and no block, so the cap
    of 25 does not apply and no coverer mask is built."""
    from zerocontrol import drivers

    problem = drivers._cover_problem(_many_self_loops(30))
    assert drivers._kernel(problem) == (list(range(30)), [])
    ds = minimal_driver_set(_many_self_loops(30))
    assert ds.minimal and ds.size == 30
    assert "coverers" not in vars(problem)


def test_exact_cap_fallback_builds_the_cover_problem_once(monkeypatch):
    from zerocontrol import drivers

    calls = []
    build = drivers._cover_problem
    monkeypatch.setattr(drivers, "_cover_problem", lambda a: calls.append(a) or build(a))
    p = _nested_chain(15)
    for search in (minimal_driver_set, enumerate_minimal_driver_sets):
        calls.clear()
        with pytest.warns(ExactSearchSkipped):
            search(p)
        assert len(calls) == 1


def test_over_cap_search_builds_no_coverer_masks(monkeypatch):
    """The per-target coverer masks hold every coverage bit: quadratic where
    coverages nest, and the greedy fallback needs none of them."""
    from zerocontrol import drivers

    problems = []
    build = drivers._cover_problem
    monkeypatch.setattr(drivers, "_cover_problem", lambda a: problems.append(build(a)) or problems[-1])
    chain = _nested_chain(5000)
    with pytest.warns(ExactSearchSkipped):
        assert minimal_driver_set(chain).drivers == frozenset({"x1"})
    with pytest.warns(ExactSearchSkipped):
        assert [ds.drivers for ds in enumerate_minimal_driver_sets(chain)] == [frozenset({"x1"})]
    assert len(problems) == 2 and not any("coverers" in vars(p) for p in problems)
    minimal_driver_set(_nested_chain(3))
    assert "coverers" in vars(problems[-1])


def test_a_chain_of_self_loops_has_one_root_target():
    """Every loop of the chain x1 -> ... -> xn lies below x1's, so x1's class
    is the one target's only coverer: exact, with no search, at any n."""
    from zerocontrol import drivers

    n = 10**4
    chain = PatternMatrix(n, n, frozenset({(i, i) for i in range(1, n + 1)} | {(i + 1, i) for i in range(1, n)}))
    problem = drivers._cover_problem(chain)
    assert (problem.coverage, problem.members) == ((1,), ((1,),))
    ds = minimal_driver_set(chain, exact_cap=0)
    assert ds.drivers == frozenset({"x1"}) and ds.minimal


def test_exact_cap_can_be_raised():
    ds = minimal_driver_set(_nested_chain(15), exact_cap=29)
    assert ds.minimal and ds.drivers == frozenset({"x1"})


# --- cross-module and oracle properties ----------------------------------------------

def test_minimal_matches_exhaustive_oracle_smoke():
    for p in random_square_patterns(seed=404, count=25, max_n=7):
        size, all_sets = oracle_minimum_driver_sets(p)
        ds = minimal_driver_set(p)
        assert ds.size == size
        assert drivers_as_indices(ds) in all_sets


def test_minimality_by_removal(example1_a, example2_a):
    patterns = [example1_a, example2_a] + random_square_patterns(seed=11, count=20, max_n=7)
    for p in patterns:
        ds = minimal_driver_set(p)
        assert ds.valid
        for member in ds.drivers:
            weakened = validate_driver_set(p, ds.drivers - {member})
            assert not weakened.valid


def test_greedy_never_beats_exact_and_is_always_valid():
    for p in random_square_patterns(seed=3030, count=40, max_n=8):
        greedy = greedy_driver_set(p)
        exact = minimal_driver_set(p)
        assert greedy.valid
        assert greedy.size >= exact.size


def test_driver_soundness_via_zero_controllability(example1_a, example2_a):
    patterns = [example1_a, example2_a] + random_square_patterns(seed=77, count=20, max_n=7)
    for p in patterns:
        ds = minimal_driver_set(p)
        if not ds.drivers:
            assert is_generically_zero_controllable(p).verdict
            continue
        b = build_b_pattern(p.n_rows, ds.drivers, "shared").pattern
        assert is_generically_zero_controllable(p, b).verdict


def test_scc_interchangeability(example1_a, example2_a):
    for p in (example1_a, example2_a):
        scc = scc_decompose(build_graph(p))
        for ds in enumerate_minimal_driver_sets(p):
            for member in sorted(ds.drivers):
                comp = scc.components[scc.component_of(member)]
                for replacement in sorted(comp):
                    swapped = (ds.drivers - {member}) | {replacement}
                    assert validate_driver_set(p, swapped).valid


# --- induced input patterns -----------------------------------------------------------

def test_b_pattern_per_driver(example2_a):
    bp = build_b_pattern(11, {"x4", "x8"}, "per_driver")
    assert bp.pattern.shape == (11, 2)
    assert bp.pattern.nonzeros == frozenset({(4, 1), (8, 2)})


def test_b_pattern_shared():
    bp = build_b_pattern(11, {"x4", "x8"}, "shared")
    assert bp.pattern.shape == (11, 1)
    assert bp.pattern.nonzeros == frozenset({(4, 1), (8, 1)})


def test_b_pattern_single_driver():
    bp = build_b_pattern(3, {"x2"}, "shared")
    assert bp.pattern.shape == (3, 1)
    assert bp.pattern.nonzeros == frozenset({(2, 1)})


def test_b_pattern_empty_drivers():
    bp = build_b_pattern(4, set(), "per_driver")
    assert bp.pattern.shape == (4, 0)


def test_b_pattern_column_order_follows_state_index():
    bp = build_b_pattern(12, {"x11", "x2"}, "per_driver")
    assert bp.pattern.nonzeros == frozenset({(2, 1), (11, 2)})


def test_b_pattern_rejects_bad_input():
    with pytest.raises(ValueError, match=r"unknown vertex 'x9' \(pattern has 3 states\)"):
        build_b_pattern(3, {"x9"}, "shared")
    with pytest.raises(ValueError, match="must be states"):
        build_b_pattern(3, {"u1"}, "shared")
    with pytest.raises(ValueError, match="mode must be"):
        build_b_pattern(3, {"x1"}, "weird")
    with pytest.raises(ValueError, match="^mode must be 'shared' or 'per_driver', got 'weird'$"):
        build_b_pattern(3, set(), "weird")
    # BPattern itself checks the mode, after the drivers are resolved
    with pytest.raises(ValueError, match="unknown vertex 'x9'"):
        build_b_pattern(3, {"x9"}, "weird")


def test_negative_exact_cap_is_rejected(example2_a):
    with pytest.raises(ValueError, match="exact_cap must be >= 0, got -1"):
        minimal_driver_set(example2_a, exact_cap=-1)
    with pytest.raises(ValueError, match="exact_cap must be >= 0, got -1"):
        enumerate_minimal_driver_sets(example2_a, exact_cap=-1)
    assert minimal_driver_set(PatternMatrix.zeros(3, 3), exact_cap=0).drivers == frozenset()


# --- witnesses against the induced-subgraph reference ---------------------------------

def test_witnesses_match_find_cycle_on_the_unreached_states():
    """The ZC and driver witnesses come from the full graph's components;
    find_cycle over the unreached states runs its own decomposition of the
    induced subgraph and must pick the same cycle."""
    rng = np.random.default_rng(4242)
    negatives = bfs_witnesses = 0
    for _ in range(1000):
        n = int(rng.integers(1, 41))
        a = PatternMatrix.from_rows(rng.random((n, n)) < rng.uniform(0.3, 3.0) / n)
        m = int(rng.integers(0, 3))
        b = PatternMatrix.from_rows(rng.random((n, m)) < 1.5 / n) if m else None
        report = is_generically_zero_controllable(a, b)
        assert report.cycle_witness == find_cycle(build_graph(a, b), within=report.unreachable_states)

        graph = build_graph(a)
        drivers = {f"x{int(v)}" for v in rng.integers(1, n + 1, size=int(rng.integers(0, 3)))}
        ds = validate_driver_set(a, drivers)
        unreached = set(graph.state_vertices) - reachable_from(graph, drivers)
        assert ds.uncovered_witness == find_cycle(graph, within=unreached)
        for witness in (report.cycle_witness, ds.uncovered_witness):
            negatives += witness is not None
            bfs_witnesses += witness is not None and len(witness) > 1
    assert negatives > 500 and bfs_witnesses > 100


# --- names only at the report boundary ------------------------------------------------

def test_enumeration_names_each_state_once_and_each_driver_per_set(monkeypatch):
    """Three disjoint 4-cycles feeding a 60-state chain: 64 minimum sets of
    3 drivers.  Naming happens once per listed driver only; the components
    and the checks themselves run on state ids."""
    from zerocontrol import drivers, graph, structural

    n = 72
    cycles = {(1 + 4 * c + (k + 1) % 4, 1 + 4 * c + k) for c in range(3) for k in range(4)}
    chain = {(13, 1), (13, 5), (13, 9)} | {(v + 1, v) for v in range(13, n)}
    calls = []
    original = graph.state_name

    def counted(i):
        calls.append(i)
        return original(i)

    for module in (graph, structural, drivers):
        monkeypatch.setattr(module, "state_name", counted)
    listed = enumerate_minimal_driver_sets(PatternMatrix(n, n, frozenset(cycles | chain)), limit=100)
    assert len(listed) == 64 and all(ds.valid and ds.size == 3 for ds in listed)
    assert len(calls) <= 64 * 3

"""Batch update cycles, sub-clique removal, finalization, state files."""

import hashlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from tclique import (
    BatchState,
    ConfigError,
    LinkStream,
    StateError,
    TemporalLink,
    brute_force_enumerate,
    contains,
    dump_state,
    finalize,
    initial_state,
    load_state,
    make_clique,
    normalize_final,
    save_state,
    update_batch,
)
from tclique.update import contained_cliques, remove_sub_cliques
from helpers import (
    candidate_maps,
    offline_keys,
    random_state,
    run_batches,
    staged_cycles,
)


def keys(cliques):
    return {c.key() for c in cliques}


# -- update_batch --------------------------------------------------------------------


def test_single_batch_equals_reference(f1_stream):
    state = initial_state(3, 2, 1)
    state, stats = update_batch(state, list(f1_stream.links), 5)
    final = finalize(state, f1_stream)
    assert keys(final) == keys(brute_force_enumerate(f1_stream, 3, 2))
    assert stats.batch_links == 8
    assert stats.n_maximal == len(state.maximal)
    assert stats.n_new >= 1 and stats.n_checked == 0  # first cycle checks nothing


def test_two_batches_on_handoff_fixture(handoff_stream):
    state = run_batches(handoff_stream, 4, 2, (11, 20))
    final = finalize(state, handoff_stream)
    assert keys(final) == keys(brute_force_enumerate(handoff_stream, 4, 2))


def test_batch_links_must_fit_window(f1_stream):
    state = initial_state(3, 2, 1)
    with pytest.raises(ConfigError, match="outside"):
        update_batch(state, [TemporalLink(1, 2, 9)], 5)
    state, _ = update_batch(state, [l for l in f1_stream.links if l.t <= 3], 3)
    with pytest.raises(ConfigError, match="outside"):
        update_batch(state, [TemporalLink(1, 2, 2)], 5)  # belongs to the past


def test_boundary_must_advance(f1_stream):
    state = initial_state(3, 2, 1)
    state, _ = update_batch(state, [l for l in f1_stream.links if l.t <= 3], 3)
    with pytest.raises(ConfigError, match="advance"):
        update_batch(state, [], 3)


def test_empty_batches_are_harmless(f1_stream):
    state = initial_state(3, 2, 1)
    state, _ = update_batch(state, list(f1_stream.links), 5)
    state, stats = update_batch(state, [], 9)
    stream9 = LinkStream(f1_stream.links, observation=(1, 9))
    assert keys(finalize(state, stream9)) == offline_keys(stream9, 3, 2)
    assert stats.batch_links == 0


def mid_stream_state(handoff_stream):
    state = initial_state(4, 2, handoff_stream.t_start)
    batch = [l for l in handoff_stream.links if l.t <= 11]
    state, _ = update_batch(state, batch, 11)
    return state


def test_link_tail_is_the_trailing_window(handoff_stream):
    state = mid_stream_state(handoff_stream)
    expected = [l for l in handoff_stream.links if 11 - 4 <= l.t <= 11]
    assert sorted(state.link_tail) == sorted(expected)


def test_frontier_members_reach_the_boundary(handoff_stream):
    state = mid_stream_state(handoff_stream)
    assert state.frontier, "fixture is built to leave a frontier"
    assert all(c.tb >= 11 for c in state.frontier.values())


def test_fresh_state_must_be_empty():
    with pytest.raises(ConfigError):
        BatchState(3, 2, 0, None, {}, {}, (TemporalLink(1, 2, 1),))
    with pytest.raises(ConfigError):
        BatchState(0, 2, 0, None, {}, {}, ())


def test_frontier_invariant_is_validated():
    lagging = make_clique([1, 2], 0, 3)
    with pytest.raises(ConfigError, match="boundary"):
        BatchState(3, 2, 0, 5, {}, {lagging.key(): lagging}, ())


def test_maximal_cliques_reaching_the_boundary_must_be_frontier():
    reaching = make_clique([1, 2], 0, 50)
    with pytest.raises(ConfigError, match="not in the frontier"):
        BatchState(3, 2, 0, 20, {reaching.key(): reaching}, {}, ())
    both = {reaching.key(): reaching}
    assert BatchState(3, 2, 0, 20, both, dict(both), ()).maximal == both


def test_load_state_rejects_a_maximal_clique_missing_from_the_frontier(
    handoff_stream,
):
    lines = dump_state(run_batches(handoff_stream, 4, 2, (11,))).splitlines()[:-1]
    assert "t_boundary 20" in lines and "1,2 [12,22] | -" in lines
    head = next(i for i, line in enumerate(lines) if line.startswith("frontier "))
    count = int(lines[head].split()[1])
    # drop the frontier copy of a maximal clique that reaches the boundary
    body = lines[:head] + [f"frontier {count - 1}"] + [
        line for line in lines[head + 1 :] if line != "1,2 [12,22] | -"
    ]
    assert len(body) == len(lines) - 1
    with pytest.raises(StateError, match="not in the frontier"):
        load_state(io.StringIO(signed(body)))


def test_staging_observer_sees_both_snapshots(handoff_stream, monkeypatch):
    # pre-sweep (carried + new) and post-sweep (next maximal) per cycle
    cycles = staged_cycles(handoff_stream, 4, 2, (11, 20), monkeypatch)
    assert [boundary for boundary, _, _ in cycles] == [11, 20]
    for _, pre, post in cycles:
        assert set(pre) >= set(post)
    assert cycles[-1][2] == run_batches(handoff_stream, 4, 2, (11, 20)).maximal


# -- removal ---------------------------------------------------------------------------


def test_remove_sub_cliques_mechanics():
    a = make_clique([1, 2], 0, 9)
    b = make_clique([1, 2], 2, 5)  # same vertices, strictly inside
    c = make_clique([1, 2, 3], 4, 6)
    d = make_clique([1, 3], 4, 6)  # strict vertex subset of c, same span
    e = make_clique([1, 2], 8, 14)  # starts after the boundary: not checked
    collection = {x.key(): x for x in (a, b, c, d, e)}
    checked = remove_sub_cliques(collection, t_prev=6)
    assert checked == 4  # everything starting at or before 6
    assert set(collection) == {a.key(), c.key(), e.key()}


def test_remove_sub_cliques_noop_before_first_boundary():
    a = make_clique([1, 2], 0, 9)
    b = make_clique([1, 2], 2, 5)
    collection = {x.key(): x for x in (a, b)}
    assert remove_sub_cliques(collection, t_prev=None) == 0
    assert len(collection) == 2


def small_cliques(top_vertex: int):
    """Cliques over vertices 1..top_vertex with spans inside [0, 8]; few
    enough values that equal vertex sets with nested spans are common."""
    return st.builds(
        lambda verts, ta, length: make_clique(verts, ta, ta + length),
        st.sets(st.integers(1, top_vertex), min_size=2, max_size=4),
        st.integers(0, 4),
        st.integers(0, 4),
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(small_cliques(5), max_size=12),
    st.lists(small_cliques(7), max_size=6),  # vertices 6 and 7: in no posting list
    st.lists(st.integers(0, 50), max_size=6),
)
# equal vertex sets, nested spans (both ways round)
@example([make_clique([1, 2], 0, 8)], [make_clique([1, 2], 2, 5)], [])
@example([make_clique([1, 2], 2, 5)], [make_clique([1, 2], 0, 8)], [])
# identical cliques: taken from the collection itself
@example([make_clique([1, 2, 3], 0, 4), make_clique([1, 2], 1, 3)], [], [0, 1])
# an inner clique absent from the collection, inside one of its cliques
@example([make_clique([1, 2, 3], 0, 4)], [make_clique([1, 3], 1, 2)], [])
# an inner vertex that no collection clique holds
@example([make_clique([1, 2], 0, 8)], [make_clique([1, 6], 1, 2)], [])
def test_contained_cliques_matches_brute_force(collection, fresh, picks):
    inner = fresh + [collection[i % len(collection)] for i in picks if collection]
    expected = [c for c in inner if any(contains(o, c) for o in collection)]
    assert contained_cliques(inner, collection) == expected


# -- finalize ----------------------------------------------------------------------------


def test_normalize_clamps_dedups_and_prunes():
    raw = [
        make_clique([1, 2], 12, 22),
        make_clique([1, 2], 12, 21),  # duplicate after clamping
        make_clique([1, 2], 13, 20),  # contained once clamped
    ]
    final = normalize_final(raw, t_end=21)
    assert set(final) == {((1, 2), 12, 21)}


def test_finalize_checks_observation_start(f1_stream):
    state = initial_state(3, 2, 0)  # stream starts at 1
    with pytest.raises(ConfigError):
        finalize(state, f1_stream)


# -- state files ---------------------------------------------------------------------------


def test_state_round_trip_is_identity():
    for seed in range(25):
        state = random_state(seed)
        text = dump_state(state)
        again = load_state(io.StringIO(text))
        assert again == state
        assert candidate_maps(again) == candidate_maps(state)
        assert dump_state(again) == text  # byte-stable


def test_real_state_round_trips(handoff_stream):
    state = run_batches(handoff_stream, 4, 2, (11,))
    buf = io.StringIO()
    save_state(state, buf)
    again = load_state(io.StringIO(buf.getvalue()))
    assert again == state
    assert candidate_maps(again) == candidate_maps(state)


def test_state_corruption_is_detected(handoff_stream):
    state = run_batches(handoff_stream, 4, 2, (11,))
    text = dump_state(state)
    with pytest.raises(StateError, match="checksum"):
        load_state(io.StringIO(text.replace("delta 4", "delta 5", 1)))
    truncated = "".join(text.splitlines(keepends=True)[:-3])
    with pytest.raises(StateError):
        load_state(io.StringIO(truncated))
    # a well-formed file (valid checksum) from an unknown format version
    body = text[: text.rindex("checksum ")].replace("v1", "v9", 1)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    with pytest.raises(StateError, match="header|version"):
        load_state(io.StringIO(body + f"checksum {digest}\n"))
    with pytest.raises(StateError):
        load_state(io.StringIO(""))


def signed(body_lines: list[str]) -> str:
    """State text with a valid checksum over the given body lines."""
    body = "\n".join(body_lines) + "\n"
    return body + f"checksum {hashlib.sha256(body.encode('utf-8')).hexdigest()}\n"


def test_load_state_wraps_bad_values_in_state_error(handoff_stream):
    lines = dump_state(run_batches(handoff_stream, 4, 2, (11,))).splitlines()[:-1]
    assert lines[4].startswith("t_boundary ")
    with pytest.raises(StateError, match="t_boundary"):
        load_state(io.StringIO(signed(lines[:4] + ["t_boundary x"] + lines[5:])))
    # a tail line with u > v is not a canonical link
    assert lines[-1].count(" ") == 2
    with pytest.raises(StateError, match="link_tail"):
        load_state(io.StringIO(signed(lines[:-1] + ["2 1 5"])))


def test_load_state_rejects_repeated_section_lines(handoff_stream):
    state = initial_state(4, 1, handoff_stream.t_start)
    state, _ = update_batch(state, [l for l in handoff_stream.links if l.t <= 11], 11)
    lines = dump_state(state).splitlines()[:-1]
    for section in ("maximal", "frontier", "link_tail"):
        head = next(i for i, line in enumerate(lines) if line.startswith(section + " "))
        assert int(lines[head].split()[1]) >= 2
        # the second line repeats the first: the count stays, one entry is lost
        repeated = lines[: head + 2] + [lines[head + 1]] + lines[head + 3 :]
        with pytest.raises(StateError, match=f"{section} section lists"):
            load_state(io.StringIO(signed(repeated)))


STATE_TOKENS = st.sampled_from(
    ["x", "none", "-", "", "-1", "0", "7", "2 1 5", "1 1 3", "1,2", "1,1 [0,1]",
     "2,1 [0,1]", "1,2 [5,1]", "1,2 [0,1] | x", "1,2 [0,1] | -", "1,2 [0,1] |",
     "maximal 99", "frontier -1", "link_tail x", "t_boundary x", "tclique-state v1"]
)
STATE_TEXT = st.text(alphabet="0123456789 ,-|[]xnoe", max_size=24)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(0, 1_000),
    st.booleans(),
    st.one_of(STATE_TOKENS, STATE_TEXT),
)
def test_mutated_state_raises_only_state_error(seed, line, whole_line, new):
    """Change one line of a state file, re-sign it so the parser is reached,
    and load it: it either loads or raises StateError, nothing else."""
    lines = dump_state(random_state(seed)).splitlines()[:-1]
    idx = line % len(lines)
    if whole_line:
        lines[idx] = new
    else:  # replace one space-separated token of the line
        tokens = lines[idx].split(" ")
        tokens[line % len(tokens)] = new
        lines[idx] = " ".join(tokens)
    try:
        load_state(io.StringIO(signed(lines)))
    except StateError:
        pass


def test_loaded_state_resumes_identically(handoff_stream):
    direct = run_batches(handoff_stream, 4, 2, (11, 20))
    half = mid_stream_state(handoff_stream)
    revived = load_state(io.StringIO(dump_state(half)))
    tail_links = [l for l in handoff_stream.links if l.t > 11]
    resumed, _ = update_batch(revived, tail_links, 20)
    assert resumed == direct
    assert keys(finalize(resumed, handoff_stream)) == keys(
        finalize(direct, handoff_stream)
    )

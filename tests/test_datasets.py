import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import packed_rows
from shiftlab.datasets import (
    CsvFormatError,
    DistractorTextSpec,
    GroupedDataset,
    TwoDomainSpec,
    batches,
    gen_distractor_text,
    gen_two_domain_gaussian,
    group_metrics,
    inject_label_noise,
    load_csv,
    save_csv,
)
from shiftlab.diffcore import InputShapeError, ModelSpec, init_params


def test_two_domain_counts_and_groups():
    ds = gen_two_domain_gaussian(TwoDomainSpec(1020, 1.0 / 51.0, 0.5, seed=0))
    assert len(ds) == 1020
    assert (ds.rows.groups == 1).sum() == 20
    assert ds.num_groups == 2
    assert ds.ids.tolist() == list(range(1020))


def test_two_domain_means_separate_along_the_right_axes():
    ds = gen_two_domain_gaussian(TwoDomainSpec(4000, 0.5, 0.1, seed=1))
    for group, axis in ((0, 0), (1, 1)):
        xs = ds.rows.x[ds.rows.groups == group]
        labels = ds.rows.labels[ds.rows.groups == group]
        sign = 1.0 if group == 0 else -1.0
        mean0 = xs[labels == 0, axis].mean()
        mean1 = xs[labels == 1, axis].mean()
        assert sign * mean0 < 0 < sign * mean1


def test_two_domain_spec_validation():
    with pytest.raises(ValueError):
        TwoDomainSpec(0, 0.5, 0.5)
    with pytest.raises(ValueError):
        TwoDomainSpec(10, 0.0, 0.5)
    with pytest.raises(ValueError):
        TwoDomainSpec(10, 0.5, -1.0)


def test_distractor_structure():
    spec = DistractorTextSpec(n=600, vocab_size=32, seq_len=8, bias=0.95, seed=0)
    ds = gen_distractor_text(spec)
    assert ds.num_groups == 4
    rows = ds.rows
    for i, (label, group) in enumerate(zip(rows.labels, rows.groups)):
        tokens = rows.tokens[rows.offsets[i]:rows.offsets[i + 1]]
        has_distractor = tokens[0] == 0
        assert len(tokens) == spec.seq_len + (1 if has_distractor else 0)
        assert group == 2 * label + int(has_distractor)
        assert 0 not in tokens[1:] if has_distractor else 0 not in tokens
    # the distractor tracks label 0 with the configured bias
    frac = np.mean(rows.groups[rows.labels == 0] % 2)
    assert abs(frac - spec.bias) < 0.06


# -- the generators against the row-by-row loops they replaced -----------------


def reference_two_domain(spec):
    """gen_two_domain_gaussian as a loop drawing one row at a time, packed."""
    majority = {0: np.array([-1.0, 0.0]), 1: np.array([1.0, 0.0])}
    minority = {0: np.array([0.0, 1.0]), 1: np.array([0.0, -1.0])}
    rng = np.random.default_rng(spec.seed)
    n_minority = int(round(spec.total_points * spec.minority_ratio))
    rows = []
    for group, count, means in ((0, spec.total_points - n_minority, majority),
                                (1, n_minority, minority)):
        for _ in range(count):
            label = int(rng.integers(0, 2))
            x = means[label] + spec.sigma * rng.standard_normal(2)
            rows.append((x, label, group))
    return packed_rows(rows)


def reference_distractor(spec):
    """gen_distractor_text as a loop drawing one row at a time, packed."""
    rng = np.random.default_rng(spec.seed)
    pool_size = max(1, (spec.vocab_size - 1) // 4)
    pool0 = np.arange(1, 1 + pool_size)
    pool1 = np.arange(1 + pool_size, 1 + 2 * pool_size)
    noise = np.arange(1 + 2 * pool_size, spec.vocab_size)
    rows = []
    for _ in range(spec.n):
        label = int(rng.integers(0, 2))
        p_distract = spec.bias if label == 0 else 1.0 - spec.bias
        has_distractor = bool(rng.random() < p_distract)
        pool = pool0 if label == 0 else pool1
        body = rng.choice(noise, size=spec.seq_len)
        body[rng.integers(0, spec.seq_len)] = rng.choice(pool)
        tokens = np.concatenate(([0], body)) if has_distractor else body
        rows.append((tokens.astype(int), label, 2 * label + int(has_distractor)))
    return packed_rows(rows)


def assert_same_bytes(ds, want):
    """The dataset's rows are want's, array by array, with ids 0..n-1."""
    assert ds.ids.tolist() == list(range(len(want)))
    for name in ("labels", "groups", "x", "tokens", "offsets"):
        a, b = getattr(ds.rows, name), getattr(want, name)
        assert (a is None) == (b is None)
        if a is not None:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2, 51, 52]) | st.integers(1, 300),
       minority_ratio=st.sampled_from([1.0 / 51.0, 0.5, 1.0]) | st.floats(0.01, 1.0),
       sigma=st.sampled_from([0.0, 0.5, 3.0]), seed=st.integers(0, 2**32 - 1))
@example(n=1, minority_ratio=1.0, sigma=0.0, seed=0)
@example(n=1020, minority_ratio=1.0 / 51.0, sigma=0.5, seed=0)
def test_two_domain_matches_the_row_loop_bit_for_bit(n, minority_ratio, sigma, seed):
    spec = TwoDomainSpec(n, minority_ratio, sigma, seed=seed)
    assert_same_bytes(gen_two_domain_gaussian(spec), reference_two_domain(spec))


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2, 51, 52]) | st.integers(1, 300),
       vocab_size=st.sampled_from([8, 9, 32]) | st.integers(8, 60),
       seq_len=st.sampled_from([1, 2, 8]) | st.integers(1, 16),
       bias=st.sampled_from([0.0, 0.5, 1.0, 0.95]), seed=st.integers(0, 2**32 - 1))
@example(n=1, vocab_size=8, seq_len=1, bias=0.0, seed=0)
@example(n=2, vocab_size=8, seq_len=1, bias=1.0, seed=1)
@example(n=2000, vocab_size=32, seq_len=8, bias=0.5, seed=291482)
def test_distractor_matches_the_row_loop_bit_for_bit(n, vocab_size, seq_len, bias, seed):
    spec = DistractorTextSpec(n, vocab_size, seq_len, bias, seed=seed)
    assert_same_bytes(gen_distractor_text(spec), reference_distractor(spec))


def test_distractor_matches_the_row_loop_on_20000_rows():
    spec = DistractorTextSpec(20_000, 32, 8, 0.95, seed=2026)
    assert_same_bytes(gen_distractor_text(spec), reference_distractor(spec))


def test_numpy_stream_facts_the_one_call_distractor_draw_rests_on():
    """gen_distractor_text replaces a loop of random() and integers() calls by one
    integers() call; these two generator properties make that exact."""
    for seed in (0, 1, 2026):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal([a.random() for _ in range(2000)],
                              b.integers(0, 2**53, size=2000) * 2.0**-53)
        # bounds above and below 2**32 take 64- and 32-bit draws; 1 takes none
        highs = np.array([2**53, 7, 2**40, 1, 2**32, 2**32 + 1, 3, 2**32 - 1, 2])
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        one_call = a.integers(0, highs, size=(500, highs.size))
        assert np.array_equal(one_call, [b.integers(0, highs) for _ in range(500)])
        # the distractor's own pattern: a coin, then a row of small bounds
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        small = np.array([23, 23, 23, 7, 8, 2])
        one_call = a.integers(0, np.concatenate(([2**53], small)), size=(500, small.size + 1))
        for row in one_call:
            assert b.random() == row[0] * 2.0**-53
            assert np.array_equal(b.integers(0, small), row[1:])


def words_taken(rng, draw):
    """64-bit words that draw(rng) takes from the stream of rng's PCG64."""
    probe = np.random.PCG64()
    probe.state = rng.bit_generator.state
    draw(rng)
    words = 0
    while probe.state["state"] != rng.bit_generator.state["state"]:
        probe.random_raw()
        words += 1
    return words


def seeds_whose_first_row_rejects(count):
    """Seeds whose first row-loop row takes more than one word per normal: a
    ziggurat rejection before the second row's label is drawn."""
    found = []
    for seed in range(10_000):
        rng = np.random.default_rng(seed)
        rng.integers(0, 2)
        if words_taken(rng, lambda r: r.standard_normal(2)) > 2:
            found.append(seed)
            if len(found) == count:
                return found
    raise AssertionError("no seed with an early ziggurat rejection")


ZIGGURAT_SEEDS = seeds_whose_first_row_rejects(3)


def test_numpy_stream_facts_the_paired_two_domain_draw_rests_on():
    """gen_two_domain_gaussian draws two rows with one random_raw() word and
    one standard_normal(4) call; these generator properties make that exact."""
    for seed in (0, 1, 2026, *ZIGGURAT_SEEDS):
        # integers(0, 2) is bit 31, then bit 63, of one 64-bit word
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(300):
            word = b.bit_generator.random_raw()
            assert a.integers(0, 2) == (word >> 31) & 1
            assert a.integers(0, 2) == word >> 63
        assert a.bit_generator.random_raw() == b.bit_generator.random_raw()
        # standard_normal leaves the held-back half alone, whatever it takes
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(300):
            word = b.bit_generator.random_raw()
            assert a.integers(0, 2) == (word >> 31) & 1
            assert np.array_equal(a.standard_normal(2), b.standard_normal(2))
            assert a.integers(0, 2) == word >> 63
        assert a.bit_generator.random_raw() == b.bit_generator.random_raw()
        # one standard_normal(4) equals two standard_normal(2) calls
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(300):
            assert np.array_equal(a.standard_normal(4),
                                  np.concatenate((b.standard_normal(2), b.standard_normal(2))))
        assert a.bit_generator.random_raw() == b.bit_generator.random_raw()


@pytest.mark.parametrize("minority_ratio", [1.0 / 51.0, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 51, 10_000])
def test_paired_two_domain_draw_matches_the_row_loop(n, minority_ratio):
    for seed in (0, *ZIGGURAT_SEEDS):
        for sigma in (0.0, 0.8):
            spec = TwoDomainSpec(n, minority_ratio, sigma, seed=seed)
            assert_same_bytes(gen_two_domain_gaussian(spec), reference_two_domain(spec))


def test_generated_examples_are_read_only_views_of_the_pack():
    listed = GroupedDataset(packed_rows((np.full(2, float(i)), i % 2) for i in range(5)),
                            ids=[7 * i for i in range(5)])
    for ds in (gen_two_domain_gaussian(TwoDomainSpec(30, 0.5, 0.5)),
               gen_distractor_text(DistractorTextSpec(30, 32, 8, 0.95)), listed):
        rows = ds.rows
        example = rows.rows(3, 4)  # one row, as views
        inputs = example.x if example.x is not None else example.tokens
        with pytest.raises(ValueError, match="read-only"):
            inputs[0] = 1
        assert np.shares_memory(inputs, rows.x if rows.x is not None else rows.tokens)
        with pytest.raises(ValueError, match="read-only"):
            rows.labels[0] = 1


def test_distractor_spec_validation():
    with pytest.raises(ValueError):
        DistractorTextSpec(0, 32, 8, 0.95)
    with pytest.raises(ValueError):
        DistractorTextSpec(10, 4, 8, 0.95)
    with pytest.raises(ValueError):
        DistractorTextSpec(10, 32, 8, 1.5)


def test_label_noise_bounds_and_extremes():
    ds = gen_two_domain_gaussian(TwoDomainSpec(200, 0.5, 0.5, seed=2))
    same = inject_label_noise(ds, 0.0, seed=0, num_classes=2)
    assert same.rows.labels.tolist() == ds.rows.labels.tolist()
    noisy = inject_label_noise(ds, 1.0, seed=0, num_classes=2)
    flipped = int((ds.rows.labels != noisy.rows.labels).sum())
    # uniform resampling keeps ~half the labels by chance
    assert 60 < flipped < 140
    with pytest.raises(ValueError):
        inject_label_noise(ds, 1.5, seed=0, num_classes=2)


def test_csv_round_trip_dense(tmp_path):
    ds = gen_two_domain_gaussian(TwoDomainSpec(30, 0.5, 0.5, seed=3))
    path = tmp_path / "dense.csv"
    save_csv(ds, path)
    loaded = load_csv(path)
    assert len(loaded) == len(ds)
    assert np.array_equal(loaded.rows.x, ds.rows.x)
    for name in ("labels", "groups"):
        assert getattr(loaded.rows, name).tolist() == getattr(ds.rows, name).tolist()
    assert loaded.ids.tolist() == ds.ids.tolist()


def test_csv_round_trip_tokens(tmp_path):
    ds = gen_distractor_text(DistractorTextSpec(25, 32, 8, 0.95, seed=4))
    path = tmp_path / "tokens.csv"
    save_csv(ds, path)
    loaded = load_csv(path)
    for name in ("tokens", "offsets", "labels", "groups"):
        assert getattr(loaded.rows, name).tolist() == getattr(ds.rows, name).tolist()


RAGGED_ROWS = st.lists(
    st.tuples(st.lists(st.integers(0, 10**6), min_size=1, max_size=12),  # tokens
              st.integers(0, 5), st.integers(0, 3), st.integers(-10**9, 10**9)),
    min_size=1, max_size=20)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=RAGGED_ROWS)
def test_csv_round_trip_keeps_ragged_token_rows(tmp_path, rows):
    saved = GroupedDataset(packed_rows((np.array(tokens), label, group)
                                       for tokens, label, group, _ in rows),
                           ids=[ex_id for *_, ex_id in rows])
    path = tmp_path / "ragged.csv"
    save_csv(saved, path)
    loaded = load_csv(path)
    assert len(loaded) == len(rows)
    assert loaded.rows.tokens.dtype.kind == "i"
    assert loaded.rows.tokens.tolist() == [t for tokens, *_ in rows for t in tokens]
    assert loaded.rows.offsets.tolist() == saved.rows.offsets.tolist()
    assert loaded.rows.labels.tolist() == [label for _, label, _, _ in rows]
    assert loaded.rows.groups.tolist() == [group for _, _, group, _ in rows]
    assert loaded.ids.tolist() == [ex_id for *_, ex_id in rows]
    assert loaded.num_groups == max(group for _, _, group, _ in rows) + 1


def test_csv_format_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(CsvFormatError, match="empty"):
        load_csv(empty)

    no_label = tmp_path / "no_label.csv"
    no_label.write_text("id,f0,group\n0,1.0,0\n")
    with pytest.raises(CsvFormatError, match="line 1"):
        load_csv(no_label)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("id,f0,label,group\n0,1.0,1,0\n1,2.0,1\n")
    with pytest.raises(CsvFormatError, match="line 3"):
        load_csv(ragged)

    bad_value = tmp_path / "bad.csv"
    bad_value.write_text("id,f0,label,group\n0,1.0,yes,0\n")
    with pytest.raises(CsvFormatError, match="line 2"):
        load_csv(bad_value)

    for name, rows, message in (("label", "0,1.0,-1,0\n", "line 2: .*label"),
                                ("group", "0,1.0,1,0\n1,2.0,0,-1\n", "line 3: .*group"),
                                ("id", f"{2**64},1.0,1,0\n", "line 2: .*too large")):
        bad_int = tmp_path / f"bad_{name}.csv"
        bad_int.write_text("id,f0,label,group\n" + rows)
        with pytest.raises(CsvFormatError, match=message):
            load_csv(bad_int)

    header_only = tmp_path / "header.csv"
    header_only.write_text("id,f0,label,group\n")
    with pytest.raises(CsvFormatError, match="no data"):
        load_csv(header_only)


def test_batches_partition_all_indices():
    ds = gen_two_domain_gaussian(TwoDomainSpec(53, 0.5, 0.5, seed=5))
    seen = []
    sizes = []
    for idx in batches(ds, 10, seed=1):
        seen.extend(idx)
        sizes.append(len(idx))
    assert sorted(seen) == list(range(53))
    assert sizes == [10, 10, 10, 10, 10, 3]
    with pytest.raises(ValueError):
        list(batches(ds, 0))


def test_batches_are_seed_deterministic():
    ds = gen_two_domain_gaussian(TwoDomainSpec(40, 0.5, 0.5, seed=6))
    a = [idx for idx in batches(ds, 8, seed=3)]
    b = [idx for idx in batches(ds, 8, seed=3)]
    assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def test_group_metrics_against_hand_counts():
    # zero-weight linear model predicts class 0 everywhere (argmax tie rule)
    model = init_params(ModelSpec("linear", input_dim=1), seed=0)
    model.params[:] = 0.0
    rows = packed_rows([
        (np.array([0.0]), 0, 0),
        (np.array([0.0]), 1, 0),
        (np.array([0.0]), 0, 1),
        (np.array([0.0]), 0, 1),
    ])
    ds = GroupedDataset(rows, 2)
    gm = group_metrics(model, ds)
    assert np.allclose(gm.per_group_accuracy, [0.5, 1.0])
    assert gm.robust_accuracy == 0.5
    assert gm.average_accuracy == 0.75
    with pytest.raises(ValueError):
        group_metrics(model, GroupedDataset(rows.take([])))


@pytest.mark.parametrize("spec, ds, message", [
    (ModelSpec("linear", input_dim=2), gen_distractor_text(DistractorTextSpec(30, 32, 8, 0.95)),
     r"expected inputs of shape \(n, 2\), got None"),
    (ModelSpec("embed_bag", vocab_size=32, embed_dim=4),
     gen_two_domain_gaussian(TwoDomainSpec(30, 0.5, 0.5)), "token input must be"),
], ids=["linear-on-tokens", "embed_bag-on-dense"])
def test_group_metrics_of_a_model_that_reads_the_other_input_form_raises(spec, ds, message):
    with pytest.raises(InputShapeError, match=message):
        group_metrics(init_params(spec, seed=0), ds)


def test_subset_keeps_group_names():
    ds = gen_two_domain_gaussian(TwoDomainSpec(20, 0.5, 0.5, seed=7))
    sub = ds.subset([0, 3, 5]).subset([1, 2])
    assert len(sub) == 2
    assert sub.ids.tolist() == [3, 5]
    assert sub.num_groups == ds.num_groups == 2

"""Property tests of the CLI boundary: whatever the arguments, ``main`` ends
in exit 0, 2, 3 or 4, and nothing but argparse's SystemExit escapes it; and
``bound`` with an integer dim >= 1 and a positive finite eps exits 0.

Floats range over all doubles, nan and infinities included. Sample counts,
boundary points and dimensions stay small so that every example runs in
milliseconds and little memory. Well-formed values are mixed in so that
each command also runs to the end.
"""

import json
import sys

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mvcheb import cli

floats = st.floats()
positive = st.floats(min_value=0.0, exclude_min=True)
float_texts = floats.map(repr)
json_values = st.recursive(
    st.none() | st.booleans() | floats | st.integers() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=16,
)
vectors = st.lists(floats, min_size=1, max_size=4)
square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(floats, min_size=n, max_size=n), min_size=n, max_size=n)
)
# positive diagonals are positive definite
diagonal_matrices = st.lists(positive, min_size=1, max_size=4).map(
    lambda d: [[d[i] if i == j else 0.0 for j in range(len(d))] for i in range(len(d))]
)
matrices = square_matrices | diagonal_matrices | json_values


def gaussian_spec(cov):
    mean = st.lists(floats, min_size=len(cov), max_size=len(cov))
    return st.fixed_dictionaries({"kind": st.just("gaussian"), "cov": st.just(cov), "mean": mean})


def tight_radial_spec(dim):
    return st.fixed_dictionaries(
        {"kind": st.just("tight_radial"), "dim": st.just(dim), "eps": st.floats(min_value=dim)}
    )


specs = st.one_of(
    st.fixed_dictionaries({"kind": st.just("paper_example"), "sigma": positive, "k": positive}),
    diagonal_matrices.flatmap(gaussian_spec),
    st.integers(1, 4).flatmap(tight_radial_spec),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["gaussian", "paper_example", "tight_radial"]) | json_values},
        optional={
            "seed": json_values,
            "mean": vectors | json_values,
            "cov": matrices,
            "sigma": json_values,
            "k": json_values,
            "eps": json_values,
            "dim": st.integers(-3, 8) | floats | st.text(max_size=4) | st.none() | st.booleans(),
        },
    ),
    json_values,
)


def json_arg(values):
    """Inline JSON text, or ("file", bytes) for the same text in a file."""
    texts = values.map(json.dumps)
    return texts | texts.map(lambda t: ("file", t.encode()))


def csv_text(header, rows):
    return "\n".join([header, *(",".join(row) for row in rows), ""]).encode()


csv_files = st.one_of(
    st.integers(1, 3).flatmap(
        lambda n: st.builds(
            csv_text,
            st.just(",".join(f"x{i + 1}" for i in range(n))) | st.text(max_size=8),
            st.lists(st.lists(st.floats(-1e6, 1e6).map(repr), min_size=n, max_size=n), max_size=6)
            | st.lists(st.lists(float_texts, min_size=n, max_size=n), max_size=6)
            | st.lists(st.lists(float_texts | st.text(max_size=4), max_size=n + 1), max_size=5),
        )
    ),
    st.binary(max_size=40),
).map(lambda content: ("file", content))


def maybe(values):
    """An optional flag: None leaves it out."""
    return st.none() | values


counts = (st.integers(1, 50) | st.integers(-3, 0)).map(str)
deltas = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(repr) | float_texts
grids = st.lists(positive, min_size=1, max_size=4, unique=True).map(sorted) | st.lists(floats)
seeds = maybe((st.integers(0, 2**64 - 1) | st.integers()).map(str))
# per subcommand, its flags: True gives a switch, False or None leaves the flag out
commands = {
    "estimate": dict(
        input=csv_files, ddof=maybe(st.sampled_from(["0", "1", "2"])), ridge=maybe(float_texts)
    ),
    "ratio": dict(cov=json_arg(matrices)),
    "bound": dict(
        eps=float_texts,
        dim=maybe(st.integers().map(str)),
        classical=st.booleans(),
        var=maybe(float_texts),
    ),
    "region": dict(
        kind=st.sampled_from(["ellipsoid", "sphere"]),
        cov=json_arg(matrices),
        delta=deltas,
        center=maybe(json_arg(vectors | json_values)),
    ),
    "coverage": dict(
        spec=json_arg(specs),
        delta=deltas,
        n=counts,
        streams=maybe((st.integers(1, 3) | st.integers(-1, 0)).map(str)),
        estimated=st.booleans(),
        seed=seeds,
    ),
    "tail": dict(
        spec=json_arg(specs), eps=grids.map(lambda g: ",".join(map(repr, g))), n=counts, seed=seeds
    ),
    "figure": dict(
        sigma=maybe(positive.map(repr) | float_texts),
        k=maybe(positive.map(repr) | float_texts),
        delta=maybe(deltas),
        n=maybe(counts),
        points=maybe(counts),
        seed=seeds,
    ),
    "sample": dict(spec=json_arg(specs), n=counts, seed=seeds),
}
invocations = st.one_of(
    [st.tuples(st.just(name), st.fixed_dictionaries(opts)) for name, opts in commands.items()]
)


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=400,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(invocation=invocations)
def test_main_exits_with_a_known_code(invocation, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a JSON argument that is not inline is read as a path
    name, options = invocation
    argv = [name]
    for flag, value in options.items():
        if value is None or value is False:
            continue
        if isinstance(value, tuple):  # ("file", content)
            path = tmp_path / f"{flag}.in"
            path.write_bytes(value[1])
            value = str(path)
        argv.append(f"--{flag}" if value is True else f"--{flag}={value}")
    argv.append(f"--{'out-prefix' if name == 'figure' else 'out'}={tmp_path / 'out'}")
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    assert code in (0, 2, 3, 4), argv


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    dim=st.integers(1, int(sys.float_info.max)),
    eps=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
@example(dim=3, eps=1e-320)
def test_bound_on_valid_input_exits_0(dim, eps, capsys):
    assert cli.main(["bound", f"--dim={dim}", f"--eps={eps!r}"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 <= out["clamped"] <= 1.0 and (out["raw"] is None or out["raw"] >= 0.0)

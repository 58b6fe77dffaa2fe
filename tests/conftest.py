import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (requested only by
    pipeline tests; kernel tests stay Ray-free)."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    yield
    ray.shutdown()


# -- both-executor differential ---------------------------------------
#
# Store queries run their plan on an in-process ArrowFrame when the
# pruned read is small and on Ray Data otherwise.  ``both_executors``
# makes every query-path call a test makes run on BOTH and requires the
# same bag of rows (or an error from both); the test then sees the Ray
# result.  Modules opt in with
# ``pytestmark = pytest.mark.usefixtures("both_executors")``.

_QUERY_MODULES = (
    "rdfa_ray.stages.sparql_text",
    "rdfa_ray.stages.sparql",
    "rdfa_ray.stages.bgp",
    "rdfa_ray.stages.closure",
    "rdfa_ray.stages.join",
    "rdfa_ray.functions.exchange",
)


def _norm(v):
    import math

    import numpy as np
    import pandas as pd

    if isinstance(v, np.generic):
        v = v.item()
    if v is None or v is pd.NA:
        return None
    if isinstance(v, float) and math.isnan(v):
        return "NaN"
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        # partial sums associate differently across bucket counts
        return float("%.9g" % v)
    return v


def _bag(ds):
    df = ds.to_pandas()
    if not len(df):
        return ()
    cols = sorted(df.columns)
    rows = [
        tuple(_norm(v) for v in row)
        for row in df[cols].itertuples(index=False, name=None)
    ]
    return tuple(cols), sorted(rows, key=repr)


def _frame_of(ds):
    import pyarrow as pa
    import ray

    from rdfa_ray.stages.localframe import ArrowFrame

    tables = ray.get(ds.to_arrow_refs())
    full = [t for t in tables if t.num_rows]
    if full:
        return ArrowFrame(pa.concat_tables(full, promote_options="permissive"))
    typed = [t for t in tables if t.num_columns]
    return ArrowFrame(typed[0] if typed else None)


def _same_outcome(ray_run, frame_run, what):
    """Run both sides; return the Ray result (materialized when it is a
    Dataset).  An eager Ray error propagates; a lazy one is left to
    surface where the test consumes the Dataset.  A frame on the Ray
    side (a store query whose pruned read is empty answers in-process
    even at limit 0) is compared as a bag, like a Dataset."""
    import ray.data as rd

    from rdfa_ray.stages.localframe import ArrowFrame

    try:
        frame_out = frame_run()
        frame_res, frame_err = (
            _bag(frame_out) if hasattr(frame_out, "to_pandas") else frame_out
        ), None
    except Exception as e:  # noqa: BLE001 - compared with Ray's outcome
        frame_res, frame_err = None, e
    try:
        out = ray_run()
    except Exception as e:
        assert frame_err is not None, "%s: Ray raised %r, the frame answered" % (what, e)
        assert isinstance(frame_err, type(e)), (
            "%s: Ray raised %r, the frame %r" % (what, e, frame_err)
        )
        raise
    if not isinstance(out, (rd.Dataset, ArrowFrame)):
        assert frame_err is None, "%s: frame raised %r" % (what, frame_err)
        assert out == frame_res, "%s: %r != frame %r" % (what, out, frame_res)
        return out
    try:
        mat = out.materialize()
    except Exception:
        assert frame_err is not None, "%s: Ray failed, the frame answered" % what
        return out
    assert frame_err is None, "%s: frame raised %r, Ray answered" % (what, frame_err)
    got = _bag(mat)
    assert got == frame_res, "%s: Ray %r != frame %r" % (what, got, frame_res)
    return mat


_in_differential = [False]


def _differential(fn):
    import functools
    import inspect

    import ray.data as rd

    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def run(*args, **kwargs):
        if _in_differential[0] or not any(
            isinstance(a, rd.Dataset) for a in (*args, *kwargs.values())
        ):
            return fn(*args, **kwargs)

        def frame_run():
            bound = sig.bind(*args, **kwargs)
            for k, v in bound.arguments.items():
                if isinstance(v, rd.Dataset):
                    bound.arguments[k] = _frame_of(v)
            if "n_buckets" in sig.parameters:
                bound.arguments["n_buckets"] = 1
            return fn(*bound.args, **bound.kwargs)

        _in_differential[0] = True
        try:
            return _same_outcome(
                lambda: fn(*args, **kwargs), frame_run, fn.__name__
            )
        finally:
            _in_differential[0] = False

    return run


def _both_limits(fn, sparql_text):
    """``execute_on_store`` with the in-process limit at 0 (Ray unless
    the read is empty) and at infinity (always in-process)."""
    import functools
    import sys

    @functools.wraps(fn)
    def run(*args, **kwargs):
        if _in_differential[0]:
            return fn(*args, **kwargs)
        saved = sparql_text.LOCAL_MAX_ROWS

        def at(limit):
            sparql_text.LOCAL_MAX_ROWS = limit
            try:
                return fn(*args, **kwargs)
            finally:
                sparql_text.LOCAL_MAX_ROWS = saved

        _in_differential[0] = True
        try:
            return _same_outcome(
                lambda: at(0), lambda: at(sys.maxsize), "execute_on_store"
            )
        finally:
            _in_differential[0] = False

    return run


@pytest.fixture
def both_executors(request, monkeypatch, ray_session):
    import importlib
    import inspect

    mods = [importlib.import_module(m) for m in _QUERY_MODULES]
    sparql_text = mods[0]
    for mod in mods:
        for name, fn in list(vars(mod).items()):
            if (
                inspect.isfunction(fn)
                and not name.startswith("_")
                and fn.__module__ == mod.__name__
            ):
                wrapped = (
                    _both_limits(fn, sparql_text)
                    if name == "execute_on_store"
                    else _differential(fn)
                )
                monkeypatch.setattr(mod, name, wrapped)
                if getattr(request.module, name, None) is fn:
                    monkeypatch.setattr(request.module, name, wrapped)
    yield

"""Relational operator demonstrations over the TPC-H-ish test tables:
grouped aggregation (with Ray's internal map-side combine), broadcast
hash join, top-k, and session windowing over the events stream.

These exercise the engine's generic dataflow operators; the RDFa
pipelines are built from the same primitives.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ..sources.io import read_parquet as read_parquet_clean


def lineitem_agg(sf_dir: str):
    """TPC-H Q1-shaped aggregate; columns pruned at the read.

    Money columns are summed as integer CENTS (per-row round to int64
    inside map_batches) so the result is exact and order-independent —
    float sums accumulated in different orders differ by eps and fail
    value-hash comparison against the SQL oracle."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    ds = read_parquet_clean(
        "%s/lineitem.parquet" % sf_dir,
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def derive(batch: pa.Table) -> pa.Table:
        price = batch.column("l_extendedprice")
        disc = batch.column("l_discount")
        rev = pc.multiply(price, pc.subtract(1.0, disc))
        batch = batch.append_column(
            "base_cents", pc.cast(pc.round(pc.multiply(price, 100.0), 0, round_mode="half_towards_infinity"), pa.int64())
        )
        batch = batch.append_column(
            "revenue_cents", pc.cast(pc.round(pc.multiply(rev, 100.0), 0, round_mode="half_towards_infinity"), pa.int64())
        )
        batch = batch.append_column(
            "disc_cents", pc.cast(pc.round(pc.multiply(disc, 100.0), 0, round_mode="half_towards_infinity"), pa.int64())
        )
        return batch

    return (
        ds.map_batches(derive, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("base_cents", alias_name="sum_base_cents"),
            Sum("revenue_cents", alias_name="sum_revenue_cents"),
            Sum("disc_cents", alias_name="sum_disc_cents"),
            Count(alias_name="count_order"),
        )
    )


def _segment_join_batch(batch: pa.Table, seg_ref=None) -> pa.Table:
    # vectorized broadcast lookup (pandas hash-map join) — no per-row
    # Python inner loop
    from ..state.broadcast import bcast_cached

    seg = bcast_cached(seg_ref)
    keys = batch.column("o_custkey").to_pandas()
    segs = keys.map(seg).fillna("")
    batch = batch.append_column("c_mktsegment", pa.array(segs, pa.string()))
    return batch.append_column(
        "total_cents",
        pc.cast(
            pc.round(
                pc.multiply(batch.column("o_totalprice"), 100.0),
                0,
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ),
    )


def orders_by_segment(sf_dir: str):
    """Broadcast hash join: customer (small side) shipped once via
    ray.put, looked up inside map_batches — no shuffle."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    cust = read_parquet_clean(
        "%s/customer.parquet" % sf_dir, columns=["c_custkey", "c_mktsegment"]
    ).to_pandas()
    seg_map_ref = ray.put(dict(zip(cust["c_custkey"], cust["c_mktsegment"])))

    orders = read_parquet_clean(
        "%s/orders.parquet" % sf_dir, columns=["o_custkey", "o_totalprice"]
    )
    # elastic tasks (not a capped actor pool): the broadcast dict is
    # fetched once per worker process via bcast_cached
    joined = orders.map_batches(
        _segment_join_batch,
        fn_kwargs={"seg_ref": seg_map_ref},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=8192,
    )
    return joined.groupby("c_mktsegment").aggregate(
        Count(alias_name="n_orders"), Sum("total_cents", alias_name="total_cents")
    )


def top_orders(sf_dir: str, k: int = 10):
    import ray.data as rd

    ds = read_parquet_clean(
        "%s/orders.parquet" % sf_dir, columns=["o_orderkey", "o_totalprice"]
    )
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(k)


def events_hourly(sf_dir: str):
    """Tumbling 1-hour windows per event type: vectorized window-key
    derivation inside map_batches + grouped aggregate (the engine's
    windowed-aggregate pattern; ordering-free because the window key is
    content-derived)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    ds = read_parquet_clean(
        "%s/events.parquet" % sf_dir, columns=["ts", "event_type", "value"]
    )

    def window_key(batch: pa.Table) -> pa.Table:
        # floor to hour, expressed as epoch seconds (int64); normalize
        # the timestamp unit FIRST — a ns-typed block (pandas default)
        # would otherwise compute 1000x hours (the cohort_retention
        # lesson: invisible on the us-typed oracle tables)
        ts_us = pc.cast(batch.column("ts"), pa.timestamp("us"))
        secs = pc.divide(pc.cast(ts_us, pa.int64()), 1_000_000)
        hour = pc.multiply(pc.divide(secs, 3600), 3600)
        batch = batch.append_column("window_start", pc.cast(hour, pa.int64()))
        return batch.append_column(
            "value_milli",
            pc.cast(
                pc.round(pc.multiply(batch.column("value"), 1000.0), 0,
                         round_mode="half_towards_infinity"),
                pa.int64(),
            ),
        )

    return (
        ds.map_batches(window_key, batch_format="pyarrow")
        .groupby(["window_start", "event_type"])
        .aggregate(Count(alias_name="n_events"), Sum("value_milli", alias_name="value_milli"))
    )


def events_props_census(sf_dir: str):
    """Census over a field extracted from the JSON payload column:
    (k, n_events, sum_value_cents) per distinct ``$.k`` — the
    payload-metadata extraction stage (``stages/jsonx.py``) feeding a
    grouped aggregate.  Extraction is map-only (vectorized Rust JSON
    scan per block, zero shuffle); the only exchange is the tiny
    grouped aggregate over the derived key.  Money sums are integer
    cents quantized per row (half away from zero, matching SQL ROUND)
    so the totals are exact at any parallelism."""
    from ray.data.aggregate import Count, Sum

    from ..stages.jsonx import json_field

    ds = read_parquet_clean(
        "%s/events.parquet" % sf_dir, columns=["props", "value"]
    )
    ds = json_field(ds, "props", "k", out="k", dtype=pa.int64())

    def cents(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "value_cents",
            pc.cast(
                pc.round(pc.multiply(batch.column("value"), 100.0), 0,
                         round_mode="half_towards_infinity"),
                pa.int64(),
            ),
        ).drop_columns(["props", "value"])

    return (
        ds.map_batches(cents, batch_format="pyarrow")
        .groupby("k")
        .aggregate(Count(alias_name="n_events"), Sum("value_cents", alias_name="sum_value_cents"))
    )


def events_winsorized(sf_dir: str):
    """Per-group winsorized sums — the outlier-clipping cleaning pass:
    clip value_milli to each event_type's exact [p5, p95]
    (order-statistic quantiles from the histogram exchange of
    ``stages/quantile.py``), then census (n, clipped int sum).  The
    bounds table is group-sized — it broadcasts via ``ray.put`` and the
    clip is map-side; no second shuffle over the rows."""
    import ray
    from ray.data.aggregate import Count, Sum

    ds = read_parquet_clean(
        "%s/events.parquet" % sf_dir, columns=["event_type", "value"]
    )

    def to_milli(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "event_type": batch.column("event_type"),
                "value_milli": pc.cast(
                    pc.round(pc.multiply(batch.column("value"), 1000.0), 0,
                             round_mode="half_towards_infinity"),
                    pa.int64(),
                ),
            }
        )

    # materialize: the milli view feeds BOTH the bounds pass and the
    # clip pass — lazy lineage would run the read + cents map twice.
    # Scale note: this pins only the (event_type, value_milli)
    # PROJECTION (~16 B/row), never the full table; at 10^12 rows that
    # is an object-store-spillable 16 TB vs paying the source read
    # twice — the same column-pruned two-pass tradeoff as
    # lmscore.materialize_input, and trivially swappable for a re-read
    # by dropping the materialize()
    milli = ds.map_batches(to_milli, batch_format="pyarrow").materialize()

    # bounds via ONE exchange: the merged (group, value) histogram is
    # group x distinct-value sized — finalize the q5/q95 rule
    # driver-side with the same ceil(q*n) order-statistic rule
    # grouped_quantiles implements (oracle: quantile_disc)
    from ray.data.aggregate import Sum as _Sum

    def hist_partial(batch: pa.Table) -> pa.Table:
        return (
            batch.group_by(["event_type", "value_milli"])
            .aggregate([([], "count_all")])
            .rename_columns(["event_type", "value_milli", "n"])
        )

    from ..stages.quantile import guard_hist_rows

    hist_ds = guard_hist_rows(
        milli.map_batches(hist_partial, batch_format="pyarrow")
        .groupby(["event_type", "value_milli"])
        .aggregate(_Sum("n", alias_name="n")),
        label="events_winsorized",
    )
    hist = hist_ds.to_pandas().sort_values(
        ["event_type", "value_milli"], kind="mergesort"
    )
    lo_lut, hi_lut = {}, {}
    import numpy as np

    for g, sub in hist.groupby("event_type", sort=False):
        cum = sub["n"].cumsum().to_numpy()
        total = int(cum[-1])
        vals = sub["value_milli"].to_numpy()
        picks = []
        for q in (0.05, 0.95):
            target = max(int(np.ceil(q * total)), 1)
            picks.append(int(vals[np.searchsorted(cum, target)]))
        lo_lut[g], hi_lut[g] = picks
    lut_ref = ray.put((lo_lut, hi_lut))

    def clip(batch: pd.DataFrame) -> pd.DataFrame:
        lo_t, hi_t = ray.get(lut_ref)
        lo = batch["event_type"].map(lo_t).to_numpy()  # dict map: C path
        hi = batch["event_type"].map(hi_t).to_numpy()
        v = batch["value_milli"].to_numpy()
        batch["value_milli"] = v.clip(lo, hi)
        return batch

    return (
        milli.map_batches(clip, batch_format="pandas")
        .groupby("event_type")
        .aggregate(
            Count(alias_name="n_events"),
            Sum("value_milli", alias_name="winsorized_milli"),
        )
    )


def events_hourly_dense(sf_dir: str):
    """Gap-filled hourly series per event type: every (event_type,
    hour) cell of the [global min hour, global max hour] calendar,
    zero-filled where no events landed — the resample/calendarize pass
    a time-series consumer needs before window math.  The distributed
    work is the tumbling aggregate (``events_hourly``); densification
    runs on its GROUP-SIZED result (hours x types — bounded by the
    calendar, not the row count)."""
    import itertools

    import ray.data as rd

    sparse = events_hourly(sf_dir).to_pandas()
    if not len(sparse):
        return rd.from_arrow(
            pa.table(
                {
                    "window_start": pa.array([], pa.int64()),
                    "event_type": pa.array([], pa.string()),
                    "n_events": pa.array([], pa.int64()),
                    "value_milli": pa.array([], pa.int64()),
                }
            )
        )
    hours = range(
        int(sparse["window_start"].min()),
        int(sparse["window_start"].max()) + 3600,
        3600,
    )
    types = sorted(sparse["event_type"].unique())
    grid = pd.DataFrame(
        itertools.product(hours, types), columns=["window_start", "event_type"]
    )
    dense = grid.merge(sparse, on=["window_start", "event_type"], how="left")
    dense["n_events"] = dense["n_events"].fillna(0).astype("int64")
    dense["value_milli"] = dense["value_milli"].fillna(0).astype("int64")
    return rd.from_pandas(dense)


SESSION_GAP_S = 1800


def sessionize_events(sf_dir: str, n_buckets: int = 64):
    """Session windows per user: gap > 30 min starts a new session.
    Returns (user_id, n_sessions, n_events).

    Two-level pattern (the ``stages/distinct.py`` shape): coarse-bucket
    users with the vectorized crc32 kernel, ONE shuffle on the bucket,
    then a fully vectorized per-bucket kernel — sort by (user, ts),
    numpy diff + boundary mask, pandas C-level groupby-sum.  No
    per-user Python calls (round-1's ``groupby(user).map_groups`` paid
    one pandas call per user — thousands of tiny groups)."""
    import numpy as np
    import ray.data as rd

    from ..functions.exchange import keyed_exchange

    ds = read_parquet_clean("%s/events.parquet" % sf_dir, columns=["user_id", "ts"])

    def bucket_sessions(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        secs = g["ts"].astype("int64").to_numpy() / 1e6  # epoch seconds
        new_session = np.empty(len(g), dtype=bool)
        new_session[0] = True
        # a session boundary: first event of a user, or gap > 30 min
        new_session[1:] = (uid[1:] != uid[:-1]) | (
            (secs[1:] - secs[:-1]) > SESSION_GAP_S
        )
        agg = (
            pd.DataFrame({"user_id": uid, "_s": new_session})
            .groupby("user_id", sort=False)
            .agg(n_sessions=("_s", "sum"), n_events=("_s", "size"))
            .reset_index()
        )
        agg["n_sessions"] = agg["n_sessions"].astype("int64")
        agg["n_events"] = agg["n_events"].astype("int64")
        return agg

    return keyed_exchange(ds, "user_id", bucket_sessions, n_buckets)


def top_orders_per_segment(sf_dir: str, k: int = 3):
    """Per-group top-k (the ROW_NUMBER()-OVER window pattern):
    broadcast the small customer->segment map, then ONE groupby whose
    per-segment kernel is a vectorized nlargest.  Map-side partial
    top-k first, so only k rows per (block, segment) shuffle."""
    import pandas as pd
    import ray
    import ray.data as rd

    cust = read_parquet_clean(
        "%s/customer.parquet" % sf_dir, columns=["c_custkey", "c_mktsegment"]
    ).to_pandas()
    seg_ref = ray.put(dict(zip(cust["c_custkey"], cust["c_mktsegment"])))

    def tag_and_prune(batch: pd.DataFrame) -> pd.DataFrame:
        seg = ray.get(seg_ref)
        batch = batch.copy()
        batch["c_mktsegment"] = batch["o_custkey"].map(seg).fillna("")
        # map-side partial: keep only each segment's local top-k
        return (
            batch.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True])
            .groupby("c_mktsegment", sort=False)
            .head(k)
        )

    orders = read_parquet_clean(
        "%s/orders.parquet" % sf_dir,
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )
    partials = orders.map_batches(tag_and_prune, batch_format="pandas")

    def final_topk(group: pd.DataFrame) -> pd.DataFrame:
        return group.sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True]
        ).head(k)[["c_mktsegment", "o_orderkey", "o_totalprice"]]

    return partials.groupby("c_mktsegment").map_groups(final_topk, batch_format="pandas")


def customers_semi_anti(sf_dir: str, how: str, price_floor: float | None = None,
                        priority: str | None = None):
    """Semi/anti join (EXISTS / NOT EXISTS): customers against a
    filtered orders view.  The filter runs map-side before the
    exchange and only the 8-byte key column shuffles — at 100 TB the
    probe side is |matching orders| keys, never order payloads."""
    import ray.data as rd

    from ..stages.join import bucketed_hash_join

    cust = read_parquet_clean(
        "%s/customer.parquet" % sf_dir, columns=["c_custkey", "c_mktsegment"]
    )
    cols = ["o_custkey"] + (
        ["o_totalprice"] if price_floor is not None else ["o_orderpriority"]
    )
    orders = read_parquet_clean("%s/orders.parquet" % sf_dir, columns=cols)

    def keys_only(batch: pa.Table) -> pa.Table:
        if price_floor is not None:
            batch = batch.filter(
                pc.greater(batch.column("o_totalprice"), price_floor)
            )
        else:
            batch = batch.filter(
                pc.equal(batch.column("o_orderpriority"), priority)
            )
        return batch.select(["o_custkey"]).rename_columns(["c_custkey"])

    probe = orders.map_batches(keys_only, batch_format="pyarrow")
    return bucketed_hash_join(
        cust, probe, on="c_custkey", how=how,
        left_schema=pa.schema(
            [("c_custkey", pa.int64()), ("c_mktsegment", pa.string())]
        ),
        right_schema=pa.schema([("c_custkey", pa.int64())]),
    )


SLIDE_SIZE_S = 3600
SLIDE_HOP_S = 900


def events_sliding(sf_dir: str):
    """Sliding (hopping) windows: 1 h windows every 15 min — each event
    lands in exactly size/hop = 4 windows.  The expansion is a
    vectorized numpy repeat/tile inside map_batches (rows x 4), then
    the same grouped aggregate as the tumbling path; window membership
    is content-derived so no ordering or state is needed."""
    import numpy as np
    import ray.data as rd
    from ray.data.aggregate import Count

    n_win = SLIDE_SIZE_S // SLIDE_HOP_S
    ds = read_parquet_clean("%s/events.parquet" % sf_dir, columns=["ts", "event_type"])

    def explode(batch: pa.Table) -> pa.Table:
        # unit-normalize before epoch math (see events_hourly)
        ts_us = pc.cast(batch.column("ts"), pa.timestamp("us"))
        secs = pc.divide(pc.cast(ts_us, pa.int64()), 1_000_000)
        base = np.asarray(
            pc.multiply(pc.divide(secs, SLIDE_HOP_S), SLIDE_HOP_S)
        )
        offsets = np.arange(n_win, dtype=np.int64) * SLIDE_HOP_S
        starts = np.repeat(base, n_win) - np.tile(offsets, len(base))
        types = batch.column("event_type").take(
            pa.array(np.repeat(np.arange(len(base), dtype=np.int64), n_win))
        )
        return pa.Table.from_pydict(
            {"window_start": pa.array(starts, pa.int64()), "event_type": types}
        )

    return (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby(["window_start", "event_type"])
        .aggregate(Count(alias_name="n_events"))
    )


def shipping_priority(sf_dir: str, segment: str = "BUILDING",
                      cutoff: str = "1998-01-01", k: int = 10):
    """TPC-H Q3 shape: 3-table join (customer |><| orders |><| lineitem)
    + revenue aggregate + top-k.  Scale plan: the customer segment
    filter broadcasts as a key set (no shuffle), lineitem revenue is
    partially aggregated per block BEFORE the exchange, and the one
    real all-to-all is the bucketed orders/lineitem join on
    l_orderkey; the post-join aggregate and top-k run over
    order-grained (already small) rows."""
    import numpy as np
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..stages.join import bucketed_hash_join

    cutoff_ts = pd.Timestamp(cutoff)

    cust = read_parquet_clean(
        "%s/customer.parquet" % sf_dir, columns=["c_custkey", "c_mktsegment"]
    ).to_pandas()
    keep_ref = ray.put(
        set(cust.loc[cust["c_mktsegment"] == segment, "c_custkey"].tolist())
    )

    def orders_filter(batch: pd.DataFrame) -> pd.DataFrame:
        from ..state.broadcast import bcast_cached

        keep = bcast_cached(keep_ref)
        m = batch["o_custkey"].isin(keep) & (batch["o_orderdate"] < cutoff_ts)
        out = batch.loc[m, ["o_orderkey", "o_orderdate", "o_orderpriority"]].copy()
        # epoch SECONDS (unit-explicit; pandas int64 views are ns or us
        # depending on the loaded resolution)
        out["o_epoch"] = (
            out.pop("o_orderdate").astype("datetime64[s]").astype("int64")
        )
        return out[["o_orderkey", "o_epoch", "o_orderpriority"]]

    orders = read_parquet_clean(
        "%s/orders.parquet" % sf_dir,
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(orders_filter, batch_format="pandas")

    def line_partial(batch: pd.DataFrame) -> pd.DataFrame:
        m = batch["l_shipdate"] > cutoff_ts
        b = batch.loc[m]
        # floor(x+0.5) = round-half-away-from-zero for positive prices,
        # matching DuckDB ROUND (np.round is half-even and would drift)
        rev = np.floor(
            b["l_extendedprice"].to_numpy() * (1.0 - b["l_discount"].to_numpy()) * 100.0
            + 0.5
        ).astype("int64")
        return (
            pd.DataFrame({"l_orderkey": b["l_orderkey"].to_numpy(), "revenue_cents": rev})
            .groupby("l_orderkey", as_index=False)["revenue_cents"]
            .sum()
        )

    line = read_parquet_clean(
        "%s/lineitem.parquet" % sf_dir,
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(line_partial, batch_format="pandas")

    joined = bucketed_hash_join(
        line,
        orders.map_batches(
            lambda t: t.rename_columns(["l_orderkey", "o_epoch", "o_orderpriority"]),
            batch_format="pyarrow",
        ),
        on="l_orderkey",
        left_schema=pa.schema(
            [("l_orderkey", pa.int64()), ("revenue_cents", pa.int64())]
        ),
        right_schema=pa.schema(
            [("l_orderkey", pa.int64()), ("o_epoch", pa.int64()),
             ("o_orderpriority", pa.string())]
        ),
    )
    agg = joined.groupby(["l_orderkey", "o_epoch", "o_orderpriority"]).aggregate(
        Sum("revenue_cents", alias_name="revenue_cents")
    )
    return agg.sort(["revenue_cents", "l_orderkey"], descending=[True, False]).limit(k)


def events_distinct_users(sf_dir: str):
    """Exact distinct-count at scale: two-level aggregation — partial
    per-block dedup in map_batches shrinks the shuffle to unique
    (event_type, user_id) rows, one hash groupby dedups globally, a
    second tiny groupby counts.  (The sketch-free exact pattern; an
    approximate HLL would replace level 2 with a mergeable sketch.)"""
    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Count

    ds = read_parquet_clean(
        "%s/events.parquet" % sf_dir, columns=["event_type", "user_id"]
    )

    def partial_dedup(batch: pa.Table) -> pa.Table:
        return batch.group_by(["event_type", "user_id"]).aggregate([])

    uniq = (
        ds.map_batches(partial_dedup, batch_format="pyarrow")
        .groupby(["event_type", "user_id"])
        .aggregate(Count(alias_name="_n"))
    )
    return uniq.groupby("event_type").aggregate(Count(alias_name="n_users"))


def orders_rollup(sf_dir: str):
    """GROUP BY ROLLUP (o_orderpriority, o_orderstatus): order counts
    and total cents at every rollup level, rolled-up columns emitted as
    the sentinel 'ALL' (hash-stable across engines, unlike NULL).

    Two-phase shape: the heavy lift is ONE distributed hash aggregate
    to the leaf grain (priority x status — a few dozen rows at any
    scale); the super-aggregate levels are derived from that tiny leaf
    table in a single-partition vectorized pass, never re-reading the
    input.  This is how ROLLUP should decompose on any shuffle engine:
    re-aggregating the input once per level would pay L full scans."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    ds = read_parquet_clean(
        "%s/orders.parquet" % sf_dir,
        columns=["o_orderpriority", "o_orderstatus", "o_totalprice"],
    )

    def to_cents(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "o_orderpriority": batch.column("o_orderpriority"),
                "o_orderstatus": batch.column("o_orderstatus"),
                "cents": pc.cast(
                    pc.round(
                        pc.multiply(batch.column("o_totalprice"), 100.0),
                        0,
                        round_mode="half_towards_infinity",
                    ),
                    pa.int64(),
                ),
            }
        )

    leaf = (
        ds.map_batches(to_cents, batch_format="pyarrow")
        .groupby(["o_orderpriority", "o_orderstatus"])
        .aggregate(
            Count(alias_name="n_orders"), Sum("cents", alias_name="total_cents")
        )
    )

    def add_levels(batch: pd.DataFrame) -> pd.DataFrame:
        lvl1 = (
            batch.groupby("o_orderpriority", as_index=False)[
                ["n_orders", "total_cents"]
            ]
            .sum()
            .assign(o_orderstatus="ALL")
        )
        lvl0 = pd.DataFrame(
            {
                "o_orderpriority": ["ALL"],
                "o_orderstatus": ["ALL"],
                "n_orders": [batch["n_orders"].sum()],
                "total_cents": [batch["total_cents"].sum()],
            }
        )
        out = pd.concat([batch, lvl1, lvl0], ignore_index=True)
        out["n_orders"] = out["n_orders"].astype("int64")
        out["total_cents"] = out["total_cents"].astype("int64")
        return out[["o_orderpriority", "o_orderstatus", "n_orders", "total_cents"]]

    return leaf.repartition(1).map_batches(
        add_levels, batch_format="pandas", batch_size=None
    )


def events_user_deltas(sf_dir: str, n_buckets: int = 64):
    """LAG window function: per user ordered by (ts, event_id), the
    microseconds since the user's previous event (-1 for the first).

    Same two-level shape as ``sessionize_events``: coarse-bucket users
    with the vectorized crc32 kernel (every row of a user lands in one
    bucket), ONE shuffle, then a per-bucket vectorized kernel — sort by
    (user, ts, event_id), numpy shift, mask the per-user first rows.
    Returns (event_id, delta_us)."""
    import numpy as np
    import ray.data as rd

    from ..functions.exchange import keyed_exchange

    ds = read_parquet_clean(
        "%s/events.parquet" % sf_dir, columns=["event_id", "user_id", "ts"]
    )

    def bucket_deltas(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        us = g["ts"].astype("int64").to_numpy()
        delta = np.empty(len(g), dtype="int64")
        delta[0] = -1
        delta[1:] = us[1:] - us[:-1]
        delta[1:][uid[1:] != uid[:-1]] = -1
        return pd.DataFrame(
            {"event_id": g["event_id"].to_numpy(), "delta_us": delta}
        )

    return keyed_exchange(ds, "user_id", bucket_deltas, n_buckets)


def lineitem_corr(sf_dir: str):
    """Pearson correlation of (l_quantity, l_extendedprice) per
    l_returnflag, quantized to micro units.

    The distributed-statistics shape: each batch reduces to SIX
    sufficient statistics per group (n, Sx, Sy, Sxx, Syy, Sxy) —
    mergeable by plain addition — so the shuffle carries a handful of
    48-byte rows per (block, group) and the corr formula runs once on
    the tiny aggregated table.  Any moment-based statistic (covariance,
    variance, R^2, OLS slope) distributes identically."""
    import numpy as np
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = read_parquet_clean(
        "%s/lineitem.parquet" % sf_dir,
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        x = batch["l_quantity"].astype("float64")
        y = batch["l_extendedprice"].astype("float64")
        g = pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"],
                "n": 1.0,
                "sx": x,
                "sy": y,
                "sxx": x * x,
                "syy": y * y,
                "sxy": x * y,
            }
        ).groupby("l_returnflag", as_index=False).sum()
        return g

    stats = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("l_returnflag")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"),
            Sum("sxx", alias_name="sxx"),
            Sum("syy", alias_name="syy"),
            Sum("sxy", alias_name="sxy"),
        )
    )

    def finalize(batch: pd.DataFrame) -> pd.DataFrame:
        n = batch["n"]
        cov = batch["sxy"] - batch["sx"] * batch["sy"] / n
        vx = batch["sxx"] - batch["sx"] ** 2 / n
        vy = batch["syy"] - batch["sy"] ** 2 / n
        corr = cov / np.sqrt(vx * vy)
        return pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"],
                "corr_micro": np.floor(corr * 1e6 + 0.5).astype("int64"),
            }
        )

    return stats.map_batches(finalize, batch_format="pandas")


EVENT_TYPES = ("click", "view", "purchase", "signup", "error")


def events_pivot(sf_dir: str):
    """PIVOT: one row per user with a count column per event type.

    Conditional-aggregation decomposition: each batch pre-pivots to at
    most one row per user (vectorized pandas crosstab), then ONE
    bucketed exchange and a vectorized per-bucket groupby-sum — the
    shuffle carries user-bounded partials, never raw events.  (A
    Ray-native ``aggregate(Sum x 5)`` here measured 180 s of CPU for
    62k partial rows — the multi-AggregateFn sort path is Python-rate;
    the crc32-bucket + pandas C groupby does the same reduce in
    milliseconds.)"""
    import ray.data as rd

    from ..functions.exchange import keyed_exchange

    ds = read_parquet_clean(
        "%s/events.parquet" % sf_dir, columns=["user_id", "event_type"]
    )
    cols = ["n_%s" % t for t in EVENT_TYPES]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        ct = pd.crosstab(batch["user_id"], batch["event_type"])
        out = pd.DataFrame({"user_id": ct.index.to_numpy()})
        for t, c in zip(EVENT_TYPES, cols):
            out[c] = (
                ct[t].to_numpy() if t in ct.columns else 0
            )
        for c in cols:
            out[c] = out[c].astype("int64")
        return pa.Table.from_pandas(
            out, preserve_index=False
        ).replace_schema_metadata(None)

    def bucket_sum(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby("user_id", as_index=False)[cols].sum()
        for c in cols:
            out[c] = out[c].astype("int64")
        return out

    return keyed_exchange(
        ds.map_batches(partial, batch_format="pandas"), "user_id", bucket_sum, 32
    )


def orders_topk_concat(sf_dir: str, k: int = 5):
    """Ordered STRING_AGG of each priority's top-k order keys (by
    totalprice desc, orderkey asc), ','-joined.

    Same two-level shape as ``top_orders_per_segment``: map-side
    partial top-k (k rows per block x priority shuffle), per-group
    exact top-k, then the concat is a trivial per-group string build
    over k elements — the aggregate is bounded by construction, unlike
    a naive STRING_AGG of a whole group."""
    import ray.data as rd

    orders = read_parquet_clean(
        "%s/orders.parquet" % sf_dir,
        columns=["o_orderkey", "o_orderpriority", "o_totalprice"],
    )

    def prune(batch: pd.DataFrame) -> pd.DataFrame:
        return (
            batch.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True])
            .groupby("o_orderpriority", sort=False)
            .head(k)
        )

    def concat(group: pd.DataFrame) -> pd.DataFrame:
        top = group.sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True]
        ).head(k)
        return pd.DataFrame(
            {
                "o_orderpriority": [group["o_orderpriority"].iloc[0]],
                "top_keys": [",".join(map(str, top["o_orderkey"].tolist()))],
            }
        )

    return (
        orders.map_batches(prune, batch_format="pandas")
        .groupby("o_orderpriority")
        .map_groups(concat, batch_format="pandas")
    )


def events_running_total(sf_dir: str, n_buckets: int = 64):
    """Running total (SUM OVER ... ROWS UNBOUNDED PRECEDING): per user
    ordered by (ts, event_id), the cumulative sum of `value` in exact
    milli-units.  Same bucketed-window shape as ``events_user_deltas``:
    ONE shuffle on the user bucket, then a vectorized per-bucket kernel
    (sort + pandas C-level grouped cumsum).  Returns (event_id,
    cum_milli)."""
    import numpy as np
    import ray.data as rd

    from ..functions.exchange import keyed_exchange

    ds = read_parquet_clean(
        "%s/events.parquet" % sf_dir,
        columns=["event_id", "user_id", "ts", "value"],
    )

    def to_milli(batch: pa.Table) -> pa.Table:
        milli = pc.cast(
            pc.round(pc.multiply(batch.column("value"), 1000.0), 0,
                     round_mode="half_towards_infinity"),
            pa.int64(),
        )
        return pa.Table.from_pydict(
            {
                "event_id": batch.column("event_id"),
                "user_id": batch.column("user_id"),
                "ts": batch.column("ts"),
                "milli": milli,
            }
        )

    def bucket_cumsum(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        cum = g.groupby("user_id", sort=False)["milli"].cumsum()
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "cum_milli": cum.to_numpy().astype("int64"),
            }
        )

    return keyed_exchange(
        ds.map_batches(to_milli, batch_format="pyarrow"), "user_id", bucket_cumsum, n_buckets
    )


def docs_stratified_sample(sf_dir: str):
    """Deterministic stratified systematic sample: Chinese documents at
    1-in-2, everything else at 1-in-10 (content-keyed selection — no
    RNG, so the sample is identical at every parallelism level and
    resumable runs re-select the same rows).  Pure map-side: a
    vectorized mask, zero shuffles."""
    import ray.data as rd

    ds = read_parquet_clean(
        "%s/documents.parquet" % sf_dir, columns=["doc_id", "lang", "source"]
    )

    def pick(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        mod2 = pc.equal(pc.subtract(ids, pc.multiply(pc.divide(ids, 2), 2)), 0)
        mod10 = pc.equal(pc.subtract(ids, pc.multiply(pc.divide(ids, 10), 10)), 0)
        is_zh = pc.equal(batch.column("lang"), "zh")
        keep = pc.if_else(is_zh, mod2, mod10)
        return batch.filter(pc.fill_null(keep, False))

    return ds.map_batches(pick, batch_format="pyarrow")


def local_supplier_volume(
    sf_dir: str,
    region: str = "ASIA",
    date_from: str = "1996-01-01",
    date_to: str = "1997-01-01",
    n_buckets: int = 32,
):
    """TPC-H Q5 shape: the 6-table join (region |><| nation |><|
    customer |><| orders |><| lineitem |><| supplier) -> revenue per
    nation, for orders in a date window whose customer AND supplier
    sit in the same nation of one region.

    Scale plan — exactly TWO all-to-all exchanges for a 6-table join:

    * region, nation, supplier are broadcast dimensions: read
      driver-side (they are the tiny tables of the schema), shipped
      once via ``ray.put`` as (nationkey -> name) and (suppkey ->
      nationkey) dicts.
    * customer is cut map-side to the region's nations and projected
      to (custkey, nationkey) BEFORE its exchange — the join carries
      9-byte rows, not customer rows.
    * exchange 1: bucketed orders |><| customer on custkey (orders
      pre-filtered to the date window map-side).
    * exchange 2: bucketed lineitem |><| (orders x customer) on
      orderkey — lineitem pre-projected to (orderkey, suppkey,
      revenue_cents) with revenue quantized per row.
    * the supplier-nation equality (the Q5 twist: c_nationkey =
      s_nationkey) is a map-side broadcast-dict lookup right after
      exchange 2, and the final per-nation sum is a map-side partial
      + a 5-row groupby — no third shuffle.

    Revenue quantizes per row (ROUND(ext*(1-disc)*100) as int64) so
    the DuckDB oracle compares hash-exact."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray

    from ..stages.join import bucketed_hash_join

    nation = pq.read_table(
        "%s/nation.parquet" % sf_dir,
        columns=["n_nationkey", "n_name", "n_regionkey"],
    ).to_pandas()
    reg = pq.read_table(
        "%s/region.parquet" % sf_dir, columns=["r_regionkey", "r_name"]
    ).to_pandas()
    rkeys = set(reg.loc[reg["r_name"] == region, "r_regionkey"])
    nat = nation[nation["n_regionkey"].isin(rkeys)]
    nat_name = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))
    supp = pq.read_table(
        "%s/supplier.parquet" % sf_dir, columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()
    supp_nat = dict(
        zip(supp["s_suppkey"].astype(int), supp["s_nationkey"].astype(int))
    )
    nat_ref = ray.put(nat_name)
    supp_ref = ray.put(supp_nat)

    def cust_project(batch: pd.DataFrame) -> pd.DataFrame:
        from ..state.broadcast import bcast_cached

        nats = bcast_cached(nat_ref)
        m = batch["c_nationkey"].isin(nats)
        out = batch.loc[m, ["c_custkey", "c_nationkey"]].copy()
        out.columns = ["o_custkey", "c_nationkey"]
        return out.astype({"o_custkey": "int64", "c_nationkey": "int64"})

    customer = read_parquet_clean(
        "%s/customer.parquet" % sf_dir, columns=["c_custkey", "c_nationkey"]
    ).map_batches(cust_project, batch_format="pandas")

    t_from, t_to = pd.Timestamp(date_from), pd.Timestamp(date_to)

    def orders_window(batch: pd.DataFrame) -> pd.DataFrame:
        m = (batch["o_orderdate"] >= t_from) & (batch["o_orderdate"] < t_to)
        out = batch.loc[m, ["o_orderkey", "o_custkey"]]
        return out.astype({"o_orderkey": "int64", "o_custkey": "int64"})

    orders = read_parquet_clean(
        "%s/orders.parquet" % sf_dir,
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(orders_window, batch_format="pandas")

    ord_cust = bucketed_hash_join(
        orders,
        customer,
        on="o_custkey",
        n_buckets=n_buckets,
        left_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_custkey", pa.int64())]
        ),
        right_schema=pa.schema(
            [("o_custkey", pa.int64()), ("c_nationkey", pa.int64())]
        ),
    ).select_columns(["o_orderkey", "c_nationkey"])

    def line_project(batch: pd.DataFrame) -> pd.DataFrame:
        # floor(+0.5) half-up, NOT np.round: banker's rounding diverges
        # from SQL ROUND on exact half-cent boundaries (first hit at
        # sf0.1 — off-by-1 per boundary row in the nation sums)
        cents = np.floor(
            batch["l_extendedprice"].to_numpy()
            * (1.0 - batch["l_discount"].to_numpy())
            * 100.0
            + 0.5
        ).astype("int64")
        return pd.DataFrame(
            {
                "o_orderkey": batch["l_orderkey"].astype("int64"),
                "l_suppkey": batch["l_suppkey"].astype("int64"),
                "cents": cents,
            }
        )

    line = read_parquet_clean(
        "%s/lineitem.parquet" % sf_dir,
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(line_project, batch_format="pandas")

    joined = bucketed_hash_join(
        line,
        ord_cust,
        on="o_orderkey",
        n_buckets=n_buckets,
        left_schema=pa.schema(
            [
                ("o_orderkey", pa.int64()),
                ("l_suppkey", pa.int64()),
                ("cents", pa.int64()),
            ]
        ),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("c_nationkey", pa.int64())]
        ),
    )

    def nation_partial(batch: pd.DataFrame) -> pd.DataFrame:
        from ..state.broadcast import bcast_cached

        snat = bcast_cached(supp_ref)
        names = bcast_cached(nat_ref)
        empty = pd.DataFrame(
            {
                "n_name": pd.Series([], dtype="object"),
                "revenue_cents": pd.Series([], dtype="int64"),
            }
        )
        if not len(batch):
            return empty
        s_nat = batch["l_suppkey"].map(snat)
        m = s_nat.to_numpy() == batch["c_nationkey"].to_numpy()
        if not m.any():
            return empty
        b = pd.DataFrame(
            {
                "n_name": batch.loc[m, "c_nationkey"].map(names),
                "cents": batch.loc[m, "cents"],
            }
        )
        out = (
            b.groupby("n_name", sort=False)["cents"].sum().reset_index()
        )
        out.columns = ["n_name", "revenue_cents"]
        return out.astype({"revenue_cents": "int64"})

    from ray.data.aggregate import Sum

    partials = joined.map_batches(nation_partial, batch_format="pandas")
    return (
        partials.groupby("n_name")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
        .sort("revenue_cents", descending=True)
    )


FUNNEL_STEPS = ("view", "click", "purchase")


def funnel_counts(sf_dir: str, steps=FUNNEL_STEPS, n_buckets: int = 64):
    """Ordered-funnel analysis (the product-analytics staple): how many
    users reached each step of ``steps`` IN ORDER — a user reaches step
    k+1 only with an event of that type STRICTLY AFTER their step-k
    time (earliest-completion semantics: each step's time is the MIN
    eligible timestamp).  Returns (step, step_name, users).

    Shape: prune to (user_id, ts, event_type in steps) at the read,
    coarse-bucket users (crc32), ONE shuffle, then a fully vectorized
    per-bucket chain — for each step a filtered groupby-min against
    the previous step's per-user time (C-level pandas, no per-user
    Python) — and a tiny census merge (len(steps) rows)."""
    import numpy as np
    import pyarrow.compute as _pc

    from ..functions.exchange import keyed_exchange

    steps = list(steps)
    ds = read_parquet_clean(
        "%s/events.parquet" % sf_dir, columns=["user_id", "ts", "event_type"]
    )

    def prune(batch: pa.Table) -> pa.Table:
        keep = _pc.is_in(
            batch.column("event_type"), value_set=pa.array(steps)
        )
        return batch.filter(keep)

    def bucket_funnel(group: pd.DataFrame) -> pd.DataFrame:
        ts = group["ts"].astype("int64")
        etype = group["event_type"]
        uid = group["user_id"]
        prev = None  # per-user completion time of the previous step
        counts = []
        for k, step in enumerate(steps):
            m = etype.to_numpy() == step
            if prev is not None:
                m = m & (ts.to_numpy() > uid.map(prev).to_numpy())
            cur = (
                pd.DataFrame({"u": uid.to_numpy()[m], "t": ts.to_numpy()[m]})
                .groupby("u")["t"].min()
            )
            counts.append(len(cur))
            prev = cur
        return pd.DataFrame(
            {"step": np.arange(len(steps), dtype="int64"),
             "users": np.array(counts, dtype="int64")}
        )

    partials = keyed_exchange(
        ds.map_batches(prune, batch_format="pyarrow"), "user_id", bucket_funnel, n_buckets
    )

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame(
                {"step": pd.Series([], dtype="int64"),
                 "step_name": pd.Series([], dtype="object"),
                 "users": pd.Series([], dtype="int64")}
            )
        out = batch.groupby("step", sort=True)["users"].sum().reset_index()
        out["step_name"] = [steps[int(s)] for s in out["step"]]
        out["users"] = out["users"].astype("int64")
        return out[["step", "step_name", "users"]]

    return partials.repartition(1).map_batches(
        merge, batch_format="pandas", batch_size=None
    )


_WEEK_US = 7 * 86_400 * 1_000_000


def cohort_retention(sf_dir: str, n_buckets: int = 64):
    """Cohort retention matrix (the product-analytics companion to the
    funnel): users cohorted by their first ``signup`` week, counted
    once per (cohort_week, week_offset) they were active in — any
    event counts as activity; pre-signup activity (offset < 0) is
    excluded.  Weeks are epoch-aligned integer arithmetic
    (``epoch_us // WEEK_US``) so the SQL twin is hash-exact.

    Shape: prune to (user_id, ts, event_type) at the read, ONE
    user-bucketed exchange (a user's signup and activity co-locate),
    per-bucket vectorized cohorting (groupby-min + map + dedup), then
    a tiny (cohort, offset) census merge."""
    import numpy as np

    from ..functions.exchange import keyed_exchange

    ds = read_parquet_clean(
        "%s/events.parquet" % sf_dir, columns=["user_id", "ts", "event_type"]
    )

    def bucket_cohorts(group: pd.DataFrame) -> pd.DataFrame:
        # normalize to µs regardless of the block's datetime unit
        week = (
            group["ts"].astype("datetime64[us]").astype("int64").to_numpy()
            // _WEEK_US
        )
        uid = group["user_id"].to_numpy()
        is_signup = group["event_type"].to_numpy() == "signup"
        cohort = (
            pd.DataFrame({"u": uid[is_signup], "w": week[is_signup]})
            .groupby("u")["w"].min()
        )
        cw = pd.Series(uid).map(cohort).to_numpy()
        off = week - cw
        keep = ~np.isnan(cw) & (off >= 0)
        cells = (
            pd.DataFrame(
                {"cohort_week": cw[keep].astype("int64"),
                 "week_offset": off[keep].astype("int64"),
                 "u": uid[keep]}
            )
            .drop_duplicates()
            .groupby(["cohort_week", "week_offset"], sort=False)
            .size().reset_index(name="users")
        )
        cells["users"] = cells["users"].astype("int64")
        return cells

    partials = keyed_exchange(ds, "user_id", bucket_cohorts, n_buckets)

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame(
                {"cohort_week": pd.Series([], dtype="int64"),
                 "week_offset": pd.Series([], dtype="int64"),
                 "users": pd.Series([], dtype="int64")}
            )
        out = (
            batch.groupby(["cohort_week", "week_offset"], sort=True)["users"]
            .sum().reset_index()
        )
        out["users"] = out["users"].astype("int64")
        return out

    return partials.repartition(1).map_batches(
        merge, batch_format="pandas", batch_size=None
    )

"""Distributed graph algorithms over (src, dst) edge Datasets:
triangle counting and single-source BFS levels — the KG-analytics
companions to ``closure``/``pagerank``/``cluster``.

Triangle counting is the classic degree-oriented wedge join
(node-iterator++): orient every undirected edge from its lower-degree
endpoint to its higher-degree endpoint (ties by id), enumerate wedges
(b, c) around each source's out-neighborhood, and count the wedges
that are themselves oriented edges.  The orientation bounds every
out-degree by O(sqrt(m)) on any graph, which caps the wedge count at
O(m^1.5) — the standard scalable formulation (hub nodes do NOT
explode, unlike naive neighbor joins).  Exchanges: one distinct on
canonical edges, one groupby(src) for wedges, one semi join of wedges
against edges.

BFS levels is frontier iteration with a known-set check per
superstep (the same semi-naive shape as ``closure.transitive_closure``
— only the last round's newly-reached nodes expand), with the
adaptive small-graph driver-side fast path the other iterative ops
use.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import splitmix64
from .join import bucketed_hash_join

_EDGE_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])
_WEDGE_SCHEMA = pa.schema([("kk", pa.string())])


def _canonical_edges(edges_ds, n_buckets: int):
    """Undirected edge set: (min, max) per pair, self-loops dropped,
    global distinct."""
    from .distinct import distinct

    def canon(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        s = batch.column("src")
        d = batch.column("dst")
        keep = pc.not_equal(s, d)
        s, d = s.filter(keep), d.filter(keep)
        return pa.Table.from_pydict(
            {"a": pc.min_element_wise(s, d), "b": pc.max_element_wise(s, d)}
        )

    return distinct(
        edges_ds.map_batches(canon, batch_format="pyarrow"),
        ["a", "b"],
        n_buckets=n_buckets,
    )


def triangle_count(edges_ds, n_buckets: int = 32):
    """Exact triangle count of the undirected graph induced by
    ``edges_ds`` (src:int64, dst:int64).  Returns a 1-row Dataset
    ``(n_triangles: int64)``."""
    from ray.data.aggregate import Count

    import ray
    import ray.data as rd

    edges = _canonical_edges(edges_ds, n_buckets).materialize()

    # degrees: endpoints -> count (small: one row per vertex)
    def endpoints(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "node": pa.concat_arrays(
                    [
                        batch.column("a").combine_chunks(),
                        batch.column("b").combine_chunks(),
                    ]
                )
            }
        )

    deg_df = (
        edges.map_batches(endpoints, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Count(alias_name="deg"))
        .to_pandas()
    )
    if not len(deg_df):
        return rd.from_arrow(
            pa.table({"n_triangles": pa.array([0], pa.int64())})
        )
    deg = pd.Series(
        deg_df["deg"].to_numpy(), index=deg_df["node"].to_numpy()
    )
    deg_ref = ray.put(deg)

    # orient low-degree -> high-degree (ties by id): out-degree bounded
    # by O(sqrt(m)) so wedge enumeration cannot blow up on hubs
    def orient(batch: pa.Table) -> pa.Table:
        d = ray.get(deg_ref)
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        da = d.reindex(a).to_numpy()
        db = d.reindex(b).to_numpy()
        fwd = (da < db) | ((da == db) & (a < b))
        src = np.where(fwd, a, b)
        dst = np.where(fwd, b, a)
        return pa.Table.from_pydict(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
            }
        )

    oriented = edges.map_batches(orient, batch_format="pyarrow").materialize()

    # wedges around each source: all out-neighbor pairs, emitted as the
    # packed key of the (min, max) closing edge
    def wedges(group: pd.DataFrame) -> pd.DataFrame:
        nbrs = np.sort(group["dst"].to_numpy())
        n = len(nbrs)
        if n < 2:
            return pd.DataFrame({"kk": pd.Series([], dtype="object")})
        i, j = np.triu_indices(n, k=1)
        lo, hi = nbrs[i], nbrs[j]
        kk = np.char.add(
            np.char.add(lo.astype("U20"), "\x1f"), hi.astype("U20")
        )
        return pd.DataFrame({"kk": kk})

    wedge_ds = oriented.groupby("src").map_groups(
        wedges, batch_format="pandas"
    )

    def edge_keys(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.Table.from_pydict(
            {
                "kk": pc.binary_join_element_wise(
                    pc.cast(batch.column("a"), pa.string()),
                    pc.cast(batch.column("b"), pa.string()),
                    "\x1f",
                )
            }
        )

    # triangles = wedges whose closing pair is an edge (oriented edges
    # lose no closing pairs: the canonical (min,max) key is
    # orientation-independent)
    closed = bucketed_hash_join(
        wedge_ds,
        edges.map_batches(edge_keys, batch_format="pyarrow"),
        on="kk",
        n_buckets=n_buckets,
        how="semi",
        left_schema=_WEDGE_SCHEMA,
        right_schema=_WEDGE_SCHEMA,
    )
    n = closed.count()
    return rd.from_arrow(pa.table({"n_triangles": pa.array([n], pa.int64())}))


def bfs_levels(
    edges_ds,
    source: int,
    max_depth: int = 64,
    local_limit: int = 100_000,
    n_buckets: int = 32,
):
    """Hop distance from ``source`` over the DIRECTED edge set.
    Returns (node:int64, depth:int64) for every reachable node
    (source itself at depth 0).  Semi-naive frontier expansion; edge
    sets at or below ``local_limit`` rows take one driver-side pass."""
    import ray
    import ray.data as rd

    out_schema = pa.schema([("node", pa.int64()), ("depth", pa.int64())])
    edges = edges_ds.materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return rd.from_arrow(
            pa.table(
                {
                    "node": pa.array([source], pa.int64()),
                    "depth": pa.array([0], pa.int64()),
                }
            )
        )
    if n_edges <= local_limit:
        df = edges.to_pandas()
        known = {source: 0}
        frontier = [source]
        depth = 0
        by_src = df.groupby("src")["dst"]
        adj = {s: g.to_numpy() for s, g in by_src}
        while frontier and depth < max_depth:
            depth += 1
            nxt = []
            for u in frontier:
                for v in adj.get(u, ()):  # small graph: driver-side
                    if v not in known:
                        known[v] = depth
                        nxt.append(v)
            frontier = nxt
        nodes = sorted(known)
        return rd.from_arrow(
            pa.Table.from_arrays(
                [
                    pa.array(nodes, pa.int64()),
                    pa.array([known[n] for n in nodes], pa.int64()),
                ],
                schema=out_schema,
            )
        )

    # distributed: broadcast frontier per superstep (node sets fit a
    # heap even when the edge set does not — same regime as pagerank's
    # broadcast mode); each round is one edge-set pass, zero exchange
    known = {source: 0}
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while len(frontier) and depth < max_depth:
        depth += 1
        fr_ref = ray.put(frozenset(frontier.tolist()))

        def step(batch: pa.Table) -> pa.Table:
            fr = ray.get(fr_ref)
            s = batch.column("src").to_numpy(zero_copy_only=False)
            d = batch.column("dst").to_numpy(zero_copy_only=False)
            mask = np.isin(s, list(fr))
            return pa.Table.from_pydict(
                {"node": pa.array(np.unique(d[mask]), pa.int64())}
            )

        reached = (
            edges.map_batches(step, batch_format="pyarrow")
            .to_pandas()
        )
        if "node" not in reached.columns or not len(reached):
            break
        new = [v for v in pd.unique(reached["node"]) if v not in known]
        for v in new:
            known[v] = depth
        frontier = np.asarray(new, dtype=np.int64)
    nodes = sorted(known)
    return rd.from_arrow(
        pa.Table.from_arrays(
            [
                pa.array(nodes, pa.int64()),
                pa.array([known[n] for n in nodes], pa.int64()),
            ],
            schema=out_schema,
        )
    )


def kcore(edges_ds, k: int, max_iters: int = 10_000, n_buckets: int = 32):
    """The k-core of the undirected graph: iteratively peel nodes of
    degree < k until stable; returns the surviving (node:int64,
    degree:int64) rows — degree measured inside the core.

    Supersteps run until the edge count stops changing (exact
    convergence; ``max_iters`` is a runaway bound only — peeling
    strictly shrinks the edge set, so it terminates in at most
    |V| rounds).  Each superstep: one degree exchange (endpoint
    explode with map-side partial counts), then edges incident to the
    PEELED set (nodes below k) drop through two ADAPTIVE anti joins —
    ``bloom_anti_join`` broadcasts the peeled keys map-side when they
    fit (the common case once peeling slows) and falls back to the
    Bloom-prefiltered bucketed anti join for the big first rounds;
    each superstep ``materialize()``s (iterative Dataset algorithms
    must — lazy re-execution is combinatorial).  Exact: a node peeled
    this round can never re-enter (degrees only fall)."""
    import ray.data as rd

    edges = _canonical_edges(edges_ds, n_buckets).materialize()
    n_edges = edges.count()
    empty = rd.from_arrow(
        pa.table({"node": pa.array([], pa.int64()),
                  "degree": pa.array([], pa.int64())})
    )

    def degrees(es):
        import pyarrow.compute as pc

        def endpoints(batch: pa.Table) -> pa.Table:
            return pa.Table.from_pydict(
                {"node": pa.concat_arrays([
                    pc.cast(batch.column("a"), pa.int64()).combine_chunks(),
                    pc.cast(batch.column("b"), pa.int64()).combine_chunks(),
                ])}
            )

        def partial(batch: pd.DataFrame) -> pd.DataFrame:
            if not len(batch):
                return pd.DataFrame(
                    {"node": pd.Series([], dtype="int64"),
                     "d": pd.Series([], dtype="int64")}
                )
            out = batch.groupby("node", sort=False).size().reset_index(name="d")
            out["d"] = out["d"].astype("int64")
            return out

        def merge(group: pd.DataFrame) -> pd.DataFrame:
            out = group.groupby("node", sort=False)["d"].sum().reset_index(
                name="degree"
            )
            out["degree"] = out["degree"].astype("int64")
            return out

        from ..functions.exchange import keyed_exchange

        partials = es.map_batches(endpoints, batch_format="pyarrow").map_batches(
            partial, batch_format="pandas"
        )
        return keyed_exchange(partials, "node", merge, n_buckets)

    from .bloom import bloom_anti_join

    edge_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    node_schema = pa.schema([("node", pa.int64())])

    for _ in range(max_iters):
        if n_edges == 0:
            return empty
        deg = degrees(edges).materialize()

        def low_mask(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            t = batch.filter(pc.less(batch.column("degree"), k))
            return pa.Table.from_pydict(
                {"node": pc.cast(t.column("node"), pa.int64())}
            )

        low = deg.map_batches(low_mask, batch_format="pyarrow").materialize()
        if low.count() == 0:
            return deg
        # drop edges incident to peeled nodes: two adaptive anti joins
        # (broadcast is_in below 200k peeled nodes — the common case
        # once peeling slows — else Bloom + bucketed anti join); a
        # peeled node can never re-enter, so this is exact
        for endp in ("a", "b"):
            side = low.map_batches(
                (lambda c: lambda t: t.rename_columns([c]))(endp),
                batch_format="pyarrow",
            )
            edges = bloom_anti_join(
                edges, side, on=endp, n_buckets=n_buckets,
                left_schema=edge_schema,
                right_schema=pa.schema([(endp, pa.int64())]),
            )
        edges = edges.materialize()
        n_edges = edges.count()
    raise RuntimeError("kcore did not converge within max_iters")


_PAIR_SCHEMA = pa.schema([("u", pa.int64()), ("v", pa.int64())])


def neighbor_similarity(
    edges_ds,
    min_common: int = 1,
    max_center_degree: int | None = None,
    exclude_edges: bool = True,
    n_buckets: int = 32,
):
    """Link prediction over the undirected graph induced by ``edges_ds``
    (src:int64, dst:int64): for every unordered non-adjacent node pair
    (u < v) with at least ``min_common`` common neighbors, emit
    ``(u, v, common, deg_u, deg_v, jaccard_ppm)`` where ``jaccard_ppm``
    is the neighborhood Jaccard |N(u) ∩ N(v)| / |N(u) ∪ N(v)| in exact
    integer parts-per-million (``common * 1_000_000 //
    (deg_u + deg_v - common)`` — floor division, so scores are
    bit-identical at any parallelism and SQL-comparable).

    Reference analogue: none in pyrdfa3 — a KG-analytics op in the
    ``triangle_count``/``kcore``/``pagerank`` family (who-should-link
    scoring over the constructed entity graph).

    Scale plan: wedge enumeration grouped by CENTER node (every
    common-neighbor pair is a wedge around the shared neighbor) — one
    adjacency exchange, per-group vectorized pair expansion, then ONE
    grouped count over (u, v) (Ray's sort aggregate combines map-side),
    an optional anti join against the edge set, and a broadcast degree
    lookup (one |V|-sized table via ``ray.put``, same stance as
    ``triangle_count``).  Common-neighbor counting is inherently
    sum-of-deg² work; hubs therefore explode EXACT enumeration on
    power-law graphs.  ``max_center_degree`` bounds it with documented,
    SQL-expressible semantics: common neighbors are counted only
    through centers of degree <= the cap (hub suppression — a hub
    shared by everyone carries no link signal; standard practice in
    production CN/Jaccard scoring).  The default None is exact and
    refuses nothing; callers on power-law graphs should set the cap.

    ``exclude_edges=False`` also scores already-adjacent pairs
    (similarity join over the one-hop structure instead of link
    prediction)."""
    import ray
    import ray.data as rd

    # RAW canonical (min, max) edges — self-loops dropped, duplicates
    # KEPT: the wedge kernel dedups neighbor lists per center anyway,
    # so a standalone distinct exchange (and the separate degree
    # exchange round 1 of this operator paid) would be pure latency —
    # the chain is THREE exchanges total (center wedges, pair counts,
    # caller's top-k), measured 12.5 s -> ~6 s at sf0.1.
    def canon_raw(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        s = pc.cast(batch.column("src"), pa.int64())
        d = pc.cast(batch.column("dst"), pa.int64())
        keep = pc.not_equal(s, d)
        s, d = s.filter(keep), d.filter(keep)
        return pa.Table.from_pydict(
            {"a": pc.min_element_wise(s, d), "b": pc.max_element_wise(s, d)}
        )

    edges = edges_ds.map_batches(canon_raw, batch_format="pyarrow").materialize()

    def _empty_result():
        return rd.from_arrow(
            pa.table(
                {
                    "u": pa.array([], pa.int64()),
                    "v": pa.array([], pa.int64()),
                    "common": pa.array([], pa.int64()),
                    "deg_u": pa.array([], pa.int64()),
                    "deg_v": pa.array([], pa.int64()),
                    "jaccard_ppm": pa.array([], pa.int64()),
                }
            )
        )

    # id-range pre-pass (map-only, no exchange): emptiness + whether
    # pair identities pack into ONE int64 — ids in [0, 2^31) pack
    # (u << 32 | v), giving 1-D np.unique (radix-friendly) instead of
    # the ~10x-slower axis=0 void-dtype sort and int64 join keys
    # instead of built strings.  Out-of-range ids take the generic
    # 2-column path (pinned by test).
    def id_range(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if batch.num_rows == 0:
            return pa.table({"mn": pa.array([], pa.int64()),
                             "mx": pa.array([], pa.int64())})
        mins = min(pc.min(batch.column("a")).as_py(),
                   pc.min(batch.column("b")).as_py())
        maxs = max(pc.max(batch.column("a")).as_py(),
                   pc.max(batch.column("b")).as_py())
        return pa.table({"mn": pa.array([mins], pa.int64()),
                         "mx": pa.array([maxs], pa.int64())})

    rng = edges.map_batches(id_range, batch_format="pyarrow").to_pandas()
    if not len(rng):
        return _empty_result()
    packable = int(rng["mn"].min()) >= 0 and int(rng["mx"].max()) < (1 << 31)

    # adjacency rows in both directions: (center, nbr)
    def adjacency(batch: pa.Table) -> pa.Table:
        a = batch.column("a").combine_chunks()
        b = batch.column("b").combine_chunks()
        return pa.Table.from_pydict(
            {
                "center": pa.concat_arrays([a, b]),
                "nbr": pa.concat_arrays([b, a]),
            }
        )

    adj = edges.map_batches(adjacency, batch_format="pyarrow")

    # wedge pairs, COARSE-bucketed by center (a per-center map_groups
    # pays Ray's per-group dispatch once per center; one coarse
    # exchange + in-bucket numpy runs the same work in a handful of
    # tasks — the stages/distinct.py two-level pattern).  Inside a
    # bucket: sort by center, DEDUP each center's neighbor list (this
    # is where duplicate input edges collapse), expand its upper
    # triangle via a size-keyed triu-template cache, PARTIAL-count
    # duplicate pairs, and emit each center's DEGREE as a marker row
    # (pb = -1) so the Jaccard denominators ride the same exchange —
    # no separate degree aggregate.
    cap = max_center_degree
    _LOW32 = np.uint64(0xFFFFFFFF)

    def _pack(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return (
            (u.astype(np.uint64) << np.uint64(32)) | v.astype(np.uint64)
        ).astype(np.int64)

    def add_center_bucket(batch: pa.Table) -> pa.Table:
        c = batch.column("center").to_numpy(zero_copy_only=False).astype(np.uint64)
        b = (splitmix64(c) % np.uint64(n_buckets)).astype(np.int32)
        return batch.append_column("cb", pa.array(b, pa.int32()))

    def _pair_table(u, v, n_arr, pb) -> pa.Table:
        if packable:
            return pa.Table.from_pydict(
                {"pk": pa.array(u, pa.int64()), "n": pa.array(n_arr, pa.int64()),
                 "pb": pa.array(pb, pa.int32())}
            )
        return pa.Table.from_pydict(
            {"u": pa.array(u, pa.int64()), "v": pa.array(v, pa.int64()),
             "n": pa.array(n_arr, pa.int64()), "pb": pa.array(pb, pa.int32())}
        )

    def bucket_wedges(group: pa.Table) -> pa.Table:
        centers = group.column("center").to_numpy(zero_copy_only=False)
        nbrs = group.column("nbr").to_numpy(zero_copy_only=False)
        order = np.lexsort((nbrs, centers))
        centers, nbrs = centers[order], nbrs[order]
        # group boundaries over the sorted centers
        boundary = np.flatnonzero(np.r_[True, centers[1:] != centers[:-1]])
        sizes = np.diff(np.r_[boundary, len(centers)])
        tmpl: dict[int, tuple] = {}
        us, vs = [], []
        deg_nodes, deg_vals = [], []
        for start, n in zip(boundary, sizes):
            n = int(n)
            seg = nbrs[start : start + n]
            # dedup HERE: duplicate input edges collapse per center,
            # so no standalone distinct exchange is needed; sorted
            # unique also hands triu its u < v ordering for free
            seg = seg[np.r_[True, seg[1:] != seg[:-1]]] if n > 1 else seg
            d = len(seg)
            deg_nodes.append(centers[start])
            deg_vals.append(d)
            if d < 2 or (cap is not None and d > cap):
                continue
            ij = tmpl.get(d)
            if ij is None:
                ij = np.triu_indices(d, k=1)
                tmpl[d] = ij
            us.append(seg[ij[0]])
            vs.append(seg[ij[1]])
        # degree marker rows (pb = -1): one per center of this bucket —
        # the Jaccard denominators ride the same exchange
        dn = np.asarray(deg_nodes, dtype=np.int64)
        dv = np.asarray(deg_vals, dtype=np.int64)
        markers = _pair_table(dn, np.zeros_like(dn), dv,
                              np.full(len(dn), -1, np.int32))
        if not us:
            return markers
        u = np.concatenate(us)
        v = np.concatenate(vs)
        # in-bucket partial count of repeated pairs (same pair through
        # several centers of this bucket)
        if packable:
            pk = _pack(u, v)
            uniq, n_arr = np.unique(pk, return_counts=True)
            pb = (splitmix64(uniq.astype(np.uint64)) % np.uint64(n_buckets)).astype(np.int32)
            pt = pa.Table.from_pydict(
                {
                    "pk": pa.array(uniq, pa.int64()),
                    "n": pa.array(n_arr.astype(np.int64), pa.int64()),
                    "pb": pa.array(pb, pa.int32()),
                }
            )
        else:
            packed = np.stack([u, v], axis=1)
            uniq, inv = np.unique(packed, axis=0, return_inverse=True)
            n_arr = np.bincount(inv).astype(np.int64)
            pu = uniq[:, 0]
            pv = uniq[:, 1]
            pb = (
                (splitmix64(pu.astype(np.uint64)) * np.uint64(0x9E3779B9)
                 + splitmix64(pv.astype(np.uint64)))
                % np.uint64(n_buckets)
            ).astype(np.int32)
            pt = pa.Table.from_pydict(
                {
                    "u": pa.array(pu, pa.int64()),
                    "v": pa.array(pv, pa.int64()),
                    "n": pa.array(n_arr, pa.int64()),
                    "pb": pa.array(pb, pa.int32()),
                }
            )
        return pa.concat_tables([markers, pt])

    pairs = (
        adj.map_batches(add_center_bucket, batch_format="pyarrow")
        .groupby("cb")
        .map_groups(bucket_wedges, batch_format="pyarrow")
    ).materialize()

    key = "pk" if packable else "u"

    def marker_rows(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = batch.filter(pc.equal(batch.column("pb"), -1))
        return m.select([key, "n"])

    deg_df = pairs.map_batches(marker_rows, batch_format="pyarrow").to_pandas()
    if not len(deg_df):
        return _empty_result()
    deg = pd.Series(deg_df["n"].to_numpy(), index=deg_df[key].to_numpy())
    deg_ref = ray.put(deg)

    def pair_rows(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.greater_equal(batch.column("pb"), 0))

    pairs = pairs.map_batches(pair_rows, batch_format="pyarrow")

    # final per-pair counts: ONE coarse exchange on the pair bucket,
    # in-bucket vectorized unique+bincount (never a row-per-group sort
    # aggregate)
    def bucket_counts(group: pa.Table) -> pa.Table:
        n = group.column("n").to_numpy(zero_copy_only=False)
        if packable:
            pk = group.column("pk").to_numpy(zero_copy_only=False)
            uniq, inv = np.unique(pk, return_inverse=True)
            totals = np.bincount(inv, weights=n).astype(np.int64)
            keep = totals >= min_common
            return pa.Table.from_pydict(
                {
                    "pk": pa.array(uniq[keep], pa.int64()),
                    "common": pa.array(totals[keep], pa.int64()),
                }
            )
        u = group.column("u").to_numpy(zero_copy_only=False)
        v = group.column("v").to_numpy(zero_copy_only=False)
        packed = np.stack([u, v], axis=1)
        uniq, inv = np.unique(packed, axis=0, return_inverse=True)
        totals = np.bincount(inv, weights=n).astype(np.int64)
        keep = totals >= min_common
        return pa.Table.from_pydict(
            {
                "u": pa.array(uniq[keep, 0], pa.int64()),
                "v": pa.array(uniq[keep, 1], pa.int64()),
                "common": pa.array(totals[keep], pa.int64()),
            }
        )

    counted = pairs.groupby("pb").map_groups(bucket_counts, batch_format="pyarrow")

    if exclude_edges:
        from .bloom import bloom_anti_join

        if packable:
            def edge_pk(batch: pa.Table) -> pa.Table:
                a = batch.column("a").to_numpy(zero_copy_only=False)
                b = batch.column("b").to_numpy(zero_copy_only=False)
                return pa.Table.from_pydict(
                    {"pk": pa.array(_pack(a, b), pa.int64())}
                )

            counted = bloom_anti_join(
                counted,
                edges.map_batches(edge_pk, batch_format="pyarrow"),
                on="pk",
                n_buckets=n_buckets,
                # int64 key sets broadcast cheaply (8 B/key): raise the
                # exact-set fast-path limit over the string default
                broadcast_limit=2_000_000,
                materialize_left=True,  # probe = the wedge shuffle output
                left_schema=pa.schema(
                    [("pk", pa.int64()), ("common", pa.int64())]
                ),
                right_schema=pa.schema([("pk", pa.int64())]),
            )
        else:
            def _kk(batch: pa.Table, ca: str, cb: str) -> pa.Array:
                import pyarrow.compute as pc

                return pc.binary_join_element_wise(
                    pc.cast(batch.column(ca), pa.string()),
                    pc.cast(batch.column(cb), pa.string()),
                    "\x1f",
                )

            def pair_keys(batch: pa.Table) -> pa.Table:
                return batch.append_column("kk", _kk(batch, "u", "v"))

            def edge_pair_keys(batch: pa.Table) -> pa.Table:
                return pa.Table.from_pydict({"kk": _kk(batch, "a", "b")})

            counted = bloom_anti_join(
                counted.map_batches(pair_keys, batch_format="pyarrow"),
                edges.map_batches(edge_pair_keys, batch_format="pyarrow"),
                on="kk",
                n_buckets=n_buckets,
                materialize_left=True,  # probe = the wedge shuffle output
                left_schema=pa.schema(
                    [("u", pa.int64()), ("v", pa.int64()),
                     ("common", pa.int64()), ("kk", pa.string())]
                ),
                right_schema=pa.schema([("kk", pa.string())]),
            ).map_batches(
                lambda t: t.drop_columns(["kk"]), batch_format="pyarrow"
            )

    def score(batch: pa.Table) -> pa.Table:
        d = ray.get(deg_ref)
        if packable:
            pk = batch.column("pk").to_numpy(zero_copy_only=False).astype(np.uint64)
            u = (pk >> np.uint64(32)).astype(np.int64)
            v = (pk & _LOW32).astype(np.int64)
        else:
            u = batch.column("u").to_numpy(zero_copy_only=False)
            v = batch.column("v").to_numpy(zero_copy_only=False)
        c = batch.column("common").to_numpy(zero_copy_only=False).astype(np.int64)
        du = d.reindex(u).to_numpy().astype(np.int64)
        dv = d.reindex(v).to_numpy().astype(np.int64)
        ppm = (c * 1_000_000) // (du + dv - c)
        return pa.Table.from_pydict(
            {
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
                "common": pa.array(c, pa.int64()),
                "deg_u": pa.array(du, pa.int64()),
                "deg_v": pa.array(dv, pa.int64()),
                "jaccard_ppm": pa.array(ppm, pa.int64()),
            }
        )

    return counted.map_batches(score, batch_format="pyarrow")

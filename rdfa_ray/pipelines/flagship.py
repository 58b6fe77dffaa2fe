"""The flagship KG-construction pipeline.

    read_parquet(transcripts)                       [tasks]
      -> filter(text != "")                         [vectorized tasks]
      -> map_batches(RdfaDistiller actor pool)      [actors]
      -> links via broadcast-alias AugmentingLinker [actors]
      -> groupby(part = hash(conv_id))              [the ONE shuffle]
           fused per-partition task on ``pa.Table``: the Arrow
           canonicalize kernel (the conv-derived graph IRI co-locates
           each (graph, subj) group with its link evidence) + atomic
           Parquet/N-Quads/manifest write; resume skips finished
           partitions

Every stage runs ``batch_format="pyarrow"``: no row reaches pandas
(only the returned per-partition summary is converted).

Engine analogue of the reference's whole CLI lifecycle
(``/root/reference/pyRdfa/__init__.py:689-725`` ``rdf_from_sources`` +
serialization), redesigned for streaming execution: nothing
materializes the full dataset on the driver, and exactly one
all-to-all exchange (partition-key groupby) feeds the fused
canonicalize+materialize step (SURVEY.md §7.3).  The standalone
``stages.canonicalize`` groupby remains available for pipelines whose
canonicalization key does NOT align with the output partitioning.
"""

from __future__ import annotations

import hashlib
import os
import pathlib

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.hashing import crc32_bucket
from ..sources.aliases import build_alias_table
from ..state import commit
from ..stages.distill import DISTILL_BATCH_SIZE, TRIPLES_SCHEMA, RdfaDistiller
from ..stages.link import link_batch_augmenting

def _filter_nonempty(batch: pa.Table) -> pa.Table:
    text = batch.column("text")
    mask = pc.and_(text.is_valid(), pc.not_equal(text, ""))
    return batch.filter(mask)


def build_triples(
    turns_ds, options_kwargs=None, concurrency=None, num_cpus=1, use_actors=None
):
    """transcripts Dataset -> raw distiller output (triples + diags).

    Default: elastic TASKS via ``distill_batch_task`` (see its
    docstring for the measured scaling rationale).  Pass
    ``use_actors=True`` (or a ``concurrency`` spec) for the actor-pool
    variant — required when per-actor state is heavy (vocab graphs).
    """
    if use_actors is None:
        use_actors = concurrency is not None
    filtered = turns_ds.map_batches(_filter_nonempty, batch_format="pyarrow")
    if not use_actors:
        from ..stages.distill import distill_batch_task

        return filtered.map_batches(
            distill_batch_task,
            fn_kwargs={"options_kwargs": options_kwargs or {}},
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=4096,
        )
    if concurrency is None or isinstance(concurrency, bool):
        import ray

        cores = int(ray.cluster_resources().get("CPU", 8))
        # min pool sized to ramp fast but leave CPUs for the read stage
        # (a fixed pool of `cores` actors starves reads and deadlocks)
        concurrency = (max(2, cores // 2), max(2, cores))
    return filtered.map_batches(
        RdfaDistiller,
        fn_constructor_kwargs={"options_kwargs": options_kwargs or {}},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=DISTILL_BATCH_SIZE,
        concurrency=concurrency,
        num_cpus=num_cpus,
    )


def _add_part(batch: pa.Table, n_parts: int) -> pa.Table:
    # vectorized (dictionary-encoded crc32) — identical assignment to
    # the per-row zlib.crc32 list-comp, a fraction of the Python work
    return batch.append_column(
        "part", crc32_bucket(batch.column("conv_id"), n_parts)
    )


# the one on-disk row schema: the distiller's columns with every text
# column as ``string`` (an all-null obj_lang/obj_datatype stays typed)
PARTITION_SCHEMA = pa.schema(
    [
        pa.field(f.name, pa.string() if pa.types.is_large_string(f.type) else f.type)
        for f in TRIPLES_SCHEMA
    ]
)


def _text_bytes(lines: pa.Array) -> pa.Buffer:
    """large_string lines -> the UTF-8 bytes of the text with a "\n"
    after every line: one ``binary_join`` over the lines plus a
    trailing empty one; no Python string is built."""
    lines = pa.concat_arrays([lines, pa.array([""], pa.large_string())])
    whole = pa.LargeListArray.from_arrays(pa.array([0, len(lines)], pa.int64()), lines)
    return pc.binary_join(whole, pa.scalar("\n", pa.large_string()))[0].as_buffer()


class PartitionWriter:
    """Per-partition atomic sink: parquet + N-Triples + manifest entry.

    Called from ``groupby("part").map_groups`` so one task owns one
    output partition; every file is an ``atomic_write`` and the
    manifest entry is published last (resume safety); returns the
    manifest row.  Takes a ``pa.Table`` (a pandas DataFrame is
    converted once on entry).
    """

    def __init__(self, out_dir: str, canonicalize_links: bool = False):
        self.out_dir = out_dir
        self.canonicalize_links = canonicalize_links

    def __call__(self, group) -> pa.Table:
        # pyarrow's compute kernels use a process-global thread pool
        # sized to ALL hardware cores; with one writer task per Ray CPU
        # that oversubscribes the node ~32x and measurably throttles
        # the reduce stage (Ray already allots this task exactly 1 CPU)
        if pa.cpu_count() != 1:
            pa.set_cpu_count(1)

        if not isinstance(group, pa.Table):
            group = pa.Table.from_pandas(group, preserve_index=False)
        part = group.column("part")[0].as_py()
        group = group.drop_columns(["part"])
        if self.canonicalize_links:
            # fused canonicalization: this partition holds every
            # (graph, subj) group in full (partition key = conv hash;
            # graph is conv-derived), so the bucket kernel applies
            # directly
            from ..stages.canonicalize import canonicalize_table

            group = canonicalize_table(group)
        data = group.select(PARTITION_SCHEMA.names).cast(PARTITION_SCHEMA)

        pq_final = "%s/parquet/part-%05d.parquet" % (self.out_dir, part)
        commit.atomic_write(pq_final, lambda tmp: pq.write_table(data, tmp))

        # N-Quads formatting straight from Arrow (pyarrow.compute
        # kernels, no per-row Python; this is the hot path of the sink)
        from ..rdf.ntriples import nquads_lines_arrow

        is_triple = pc.equal(data.column("kind"), "triple")
        t = data.filter(is_triple)
        n_triples = t.num_rows
        n_diags = data.num_rows - n_triples
        if n_triples:
            lines = nquads_lines_arrow(t)
            nt_bytes = _text_bytes(lines.take(pc.sort_indices(lines)))
        else:
            nt_bytes = b""
        nt_final = "%s/nt/part-%05d.nq" % (self.out_dir, part)
        commit.atomic_write(nt_final, lambda tmp: pathlib.Path(tmp).write_bytes(nt_bytes))

        sha = hashlib.sha256(nt_bytes).hexdigest()
        manifest = {
            "part": part,
            "rows": data.num_rows,
            "triples": n_triples,
            "diagnostics": n_diags,
            "conversations": pc.count_distinct(data.column("conv_id"), mode="all").as_py(),
            "sha256_nq": sha,
            "parquet": os.path.basename(pq_final),
            "nq": os.path.basename(nt_final),
        }
        commit.publish_manifest(self.out_dir, "_manifest/part-%05d.json" % part, manifest)

        return pa.Table.from_pydict(
            {
                "part": pa.array([part], pa.int32()),
                "rows": pa.array([data.num_rows], pa.int64()),
                "triples": pa.array([n_triples], pa.int64()),
                "diagnostics": pa.array([n_diags], pa.int64()),
                "sha256_nq": pa.array([sha]),
            }
        )


def partition_manifests(out_dir: str) -> list[dict]:
    """The published per-partition manifest entries, in part order."""
    mdir = "%s/_manifest" % out_dir
    if not os.path.isdir(mdir):
        return []
    return [
        commit.read_manifest(mdir, name)
        for name in sorted(os.listdir(mdir))
        if name.endswith(".json") and name != "meta.json"
    ]


def completed_parts(out_dir: str) -> set[int]:
    return {m["part"] for m in partition_manifests(out_dir)}


# partition sizing: bounded rows per output partition regardless of
# input size — a fixed partition count OOMs the writer task when the
# input grows 100x (round-1 finding: whole-partition materialization
# with n_parts=64)
DEFAULT_TURNS_PER_PARTITION = 25_000
MIN_PARTITIONS = 16
MAX_PARTITIONS = 65_536


RUN_META = "_manifest/meta.json"


def load_run_meta(out_dir: str) -> dict | None:
    return commit.read_manifest(out_dir, RUN_META)


def resolve_n_parts(turns_ds, out_dir, n_parts, resume, rows_per_partition):
    """Pick the partition count and pin it in the run manifest.

    Resume REQUIRES the same n_parts as the original run (part ids are
    conv-hash % n_parts); a pinned meta.json wins over both the
    argument and the count-based estimate.  Fresh runs with
    n_parts=None size from ``turns_ds.count()`` (metadata-only for
    parquet inputs) so each partition stays bounded at
    ``rows_per_partition`` turns.
    """
    meta = load_run_meta(out_dir) if resume else None
    if meta is not None:
        return int(meta["n_parts"])
    if resume and n_parts is None and completed_parts(out_dir):
        # completed-part manifests but no pinned meta.json (pre-pinning
        # run, or a deleted meta file): re-deriving n_parts here would
        # assign NEW bucket ids, silently drop unprocessed conversations
        # via drop_done, and mix two part numberings in one output dir.
        # Refuse instead of guessing; an EXPLICIT n_parts (the caller
        # asserting the original count) is accepted and re-pinned below.
        raise RuntimeError(
            "cannot resume %r: completed partition manifests exist but "
            "_manifest/meta.json is missing, so the original n_parts is "
            "unknown (part ids are conv-hash %% n_parts). Pass the "
            "original n_parts explicitly to re-pin it, or start a fresh "
            "output dir." % out_dir
        )
    if n_parts is None:
        n_turns = turns_ds.count()
        n_parts = -(-n_turns // rows_per_partition)
        n_parts = max(MIN_PARTITIONS, min(MAX_PARTITIONS, n_parts))
    commit.publish_manifest(out_dir, RUN_META, {"n_parts": int(n_parts)})
    return int(n_parts)


def run_flagship(
    turns_ds,
    out_dir: str,
    n_parts: int | None = None,
    resume: bool = True,
    link: bool = True,
    options_kwargs=None,
    concurrency=None,
    rows_per_partition: int = DEFAULT_TURNS_PER_PARTITION,
):
    """Run the full pipeline; returns the manifest summary as pandas.

    ``n_parts=None`` sizes partitions from the input so each writer
    task holds a bounded slice (``rows_per_partition`` turns); the
    chosen count is pinned in ``_manifest/meta.json`` and reused on
    resume (part ids are conv-hash % n_parts — they must not change
    between runs).

    Resume: partitions listed in ``out_dir/_manifest`` are complete
    (they were written atomically); their conversations are filtered
    OUT of the input before any expensive work happens, so a rerun
    only processes the missing key ranges.

    The driver holds ``out_dir``'s writer lock for the whole run.
    """
    os.makedirs(out_dir, exist_ok=True)
    with commit.writer_lock(out_dir):
        n_parts = resolve_n_parts(turns_ds, out_dir, n_parts, resume, rows_per_partition)
        done = completed_parts(out_dir) if resume else set()

        def drop_done(batch: pa.Table) -> pa.Table:
            if not done:
                return batch
            parts = crc32_bucket(batch.column("conv_id"), n_parts)
            keep = pc.invert(pc.is_in(parts, value_set=pa.array(sorted(done), pa.int32())))
            return batch.filter(keep)

        pending = turns_ds.map_batches(drop_done, batch_format="pyarrow")

        raw = build_triples(pending, options_kwargs=options_kwargs, concurrency=concurrency)
        if link:
            import ray

            alias_ref = ray.put(build_alias_table())
            # elastic TASKS (not an actor pool): the linker is cheap
            # (~3.4 us/row) and an actor pool would reserve CPUs against
            # the distiller pool; per-worker regex state is cached inside
            # link_batch_augmenting
            final = raw.map_batches(
                link_batch_augmenting,
                fn_kwargs={"alias_ref": alias_ref},
                batch_format="pyarrow",
                zero_copy_batch=True,
                batch_size=4096,
            )
        else:
            final = raw

        # ONE all-to-all: partition by hash(conv_id).  The per-turn graph
        # IRI is conv-derived, so this co-locates every (graph, subj) group
        # with its link evidence; canonicalization runs inside the same
        # per-partition task that writes the output — a fused
        # canonicalize+materialize with a single shuffle (SURVEY §7.3).
        parted = final.map_batches(
            lambda b: _add_part(b, n_parts), batch_format="pyarrow"
        )
        writer = PartitionWriter(out_dir, canonicalize_links=link)

        def write_partition(group):
            return writer(group)

        summary = parted.groupby("part").map_groups(write_partition, batch_format="pyarrow")
        return summary.to_pandas()

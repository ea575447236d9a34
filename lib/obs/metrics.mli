(** Process-global solver-metrics registry: counters, gauges, timers and
    log2 histograms with near-zero overhead when disabled and safe,
    deterministic use under {!Rc_par.Pool}.

    {1 Model}

    A metric is a named {e cell} interned once (typically in a
    module-level [let] next to the instrumented code) and updated through
    the recording functions below.  Every cell is sharded per domain:
    recording writes only the calling domain's cache-line-padded slot, so
    parallel regions never contend and never lose updates.  Reads
    ({!snapshot}, {!count}, …) merge the shards in fixed slot order and
    must only happen at sync points — after parallel regions have
    quiesced (e.g. after [Rc_par.Pool.for_] returns), which is when the
    pool's join provides the happens-before edge.

    Determinism: integer merges (counters, histograms) are commutative
    sums, so they are bit-identical for any job count.  Timer totals are
    float sums — deterministic for a fixed job count, but summation order
    across shards can differ across job counts.  Gauges are
    last-write-wins per domain; under parallel writers the shard with the
    most writes wins (ties to the lowest slot), so prefer setting gauges
    from sequential code.

    {1 Overhead}

    The registry starts disabled.  Every recording function first reads
    one atomic flag and returns immediately when it is unset — no
    allocation, no clock read, no hash lookup — so instrumentation can
    stay on hot paths unconditionally.  Enable with {!set_enabled}. *)

type t
(** A registry: a mutable name → cell table. *)

val global : t
(** The process-global registry all solver layers record into. *)

val enabled : unit -> bool
(** [enabled ()] is [true] iff recording is on. Useful to guard
    instrumentation whose {e inputs} are expensive to compute. *)

val set_enabled : bool -> unit
(** Turn recording on or off (off by default). The flag is global:
    flipping it mid-parallel-region affects all domains. *)

val reset : ?reg:t -> unit -> unit
(** Zero every cell (the cells stay interned). Call only at sync
    points. *)

(** {1 Cells}

    Interning is idempotent: the same name returns the same cell.
    Registering a name under two different kinds raises
    [Invalid_argument]. *)

type counter
(** A monotonically-growing integer (per-domain sharded). *)

type gauge
(** A last-write-wins float (see determinism caveat above). *)

type timer
(** A call-count plus total-seconds accumulator. *)

type histogram
(** An integer distribution: count/sum/min/max plus 32 log2 buckets
    (bucket 0 holds values ≤ 0; bucket [k ≥ 1] holds values with [k]
    significant bits, i.e. [2^(k-1) .. 2^k - 1]; the top bucket is
    open-ended). *)

val counter : ?reg:t -> string -> counter
val gauge : ?reg:t -> string -> gauge
val timer : ?reg:t -> string -> timer
val histogram : ?reg:t -> string -> histogram

(** {1 Recording (hot path)} *)

val add : counter -> int -> unit
val incr : counter -> unit
val set_gauge : gauge -> float -> unit

val add_time : timer -> float -> unit
(** [add_time t s] records one call taking [s] seconds. *)

val observe : histogram -> int -> unit

(** {1 Merged reads (sync points only)} *)

val count : counter -> int
(** Sum of the counter over all shards. *)

(** The merged value of a cell. *)
type value =
  | Count of int
  | Gauge of float  (** [nan] when the gauge was never set *)
  | Timer of { calls : int; total_s : float }
  | Hist of { n : int; sum : int; min : int; max : int; buckets : int array }

type snapshot = (string * value) list
(** Merged values, sorted by metric name. *)

val snapshot : ?reg:t -> unit -> snapshot
(** All interned cells and their merged values; [[]] when the registry
    is disabled. *)

val value_of : ?reg:t -> string -> value option
(** The merged value of one metric by name, if interned. *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** [diff ~before ~after] keeps only the metrics that changed, with
    counters / timer calls / histogram counts subtracted and gauges
    taking their [after] value. Histogram [min]/[max] cannot be
    un-merged and report the cumulative extremes from [after]. *)

val strip_timers : snapshot -> snapshot
(** Drop all [Timer] entries — used where output must be reproducible
    (golden tests, cross-job comparisons). *)

(** {1 Fixed export table (shared-memory segment)}

    The serve tier's supervisor exports each worker's metrics through an
    mmap'd counter segment with a versioned fixed layout
    ([Rc_serve.Shm], layout documented in [docs/operations.md]).  The
    table below names the solver counters in that layout, {e in order}:
    the order is part of the shm layout version — append within a
    version, never reorder. *)

val export_names : string array
(** The exported metric names, in shm field order. *)

val export_values : ?reg:t -> unit -> int array
(** Current merged values in {!export_names} order, collapsed to one
    integer per cell: counters and histogram counts as-is, gauges
    rounded, timers as total milliseconds.  Unlike {!snapshot} this
    reads the cells even while recording is disabled (the arrays always
    exist); names not interned in this process export as 0. *)

(** {1 Rendering} *)

val render : ?title:string -> snapshot -> string

val to_json : snapshot -> Rc_util.Json.t
(** An object keyed by metric name; counters become ints, gauges floats,
    timers [{calls; total_s}] objects, histograms
    [{n; sum; min; max; log2_buckets}] objects. *)

(** {1 Shard plumbing (used by [Rc_par.Pool])} *)

val set_shard_slot : int -> unit
(** Pin the calling domain to shard slot [0..63]. Called by pool worker
    domains at startup with their stable worker id; the pool guarantees
    no two live domains share an id. Out-of-range ids are ignored. *)

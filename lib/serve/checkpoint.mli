(** Versioned binary snapshots of flow state at iteration boundaries,
    and the save/load/resume session hooks built on
    {!Rc_core.Flow.run}'s [on_iteration] / {!Rc_core.Flow.resume_on}.

    {1 Format}

    A checkpoint file is:
    - line 1: ASCII magic + format version (["RCCKPT 3"]);
    - line 2: one-line JSON metadata ({!meta}: bench, mode, iteration,
      payload byte count and MD5) — readable without touching the blob;
    - the rest: a [Marshal] blob of the closure-free payload record
      (placement, skew targets, assignment, convergence bookkeeping,
      snapshot history, best state, trace events, and the full config).

    The netlist and rings are {e not} stored: they are deterministic
    functions of the embedded config and are regenerated on load.  The
    incremental caches ({!Rc_core.Flow_cache}) are represented by their
    keys — the restored placement and targets — because every cache
    validates against exact inputs; {!load} re-warms the STA session
    from the restored placement ({!Rc_core.Flow_ctx.warm_sta}) so a
    resumed loop does incremental (not cold) timing updates from its
    first iteration.

    {1 Guarantee}

    Resuming a checkpoint saved at iteration [k] finishes the flow
    {b bit-identically} to the uninterrupted run, for any job count:
    the resumed context re-enters exactly the code path of
    {!Rc_core.Flow.run}'s remaining iterations.

    {1 Version policy}

    [format_version] bumps on any payload or header change; {!load} and
    {!inspect} reject other versions with a descriptive error, never a
    crash.  Version 3 dropped six {!Rc_core.Flow.config} fields, so a
    version-2 payload no longer unmarshals into the current record.
    See [docs/serving.md]. *)

open Rc_core

val format_version : int

type meta = {
  version : int;
  bench : string;
  mode : string;  (** ["netflow"] or ["ilp"]. *)
  iteration : int;  (** The saved iteration boundary (0 = after prologue). *)
  converged : bool;
  payload_bytes : int;
  payload_md5 : string;  (** Hex MD5 of the marshal blob, checked on load. *)
}

val json_of_meta : meta -> Rc_util.Json.t

val mode_name : Flow.mode -> string
(** ["netflow"] or ["ilp"], as in {!meta} and the protocol's result
    documents. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents (mode 0755); an existing
    one is left alone. *)

val to_blob : Flow_ctx.t -> meta * string
(** The exact bytes {!save} would write. *)

val save : path:string -> Flow_ctx.t -> meta
(** Snapshot an iteration-boundary context.  The write is atomic (a
    uniquely named temp file, then rename): a crash mid-save never
    leaves a torn checkpoint behind, and two writers of one path never
    interleave.  Raises [Sys_error] when the file cannot be written. *)

val save_counts : unit -> int * int
(** [(written, failed)]: checkpoint files this process has saved with
    {!save}, and {!save} calls that raised.  A supervised worker
    publishes both in its shm row ([ckpt_saves] / [ckpt_skips]). *)

val inspect : path:string -> (meta, string) result
(** Read and validate only the header — cheap, no unmarshalling.  The
    same header checks as {!load}, which goes on to the payload. *)

val load : path:string -> (meta * Flow_ctx.t, string) result
(** Rebuild a resumable context: regenerate the netlist from the
    embedded config's benchmark, restore every loop-visible field, and
    prime the incremental STA session from the restored placement.
    Errors — unreadable file, wrong magic, unsupported version,
    truncation, trailing bytes, digest mismatch — are returned, never
    raised. *)

val load_blob : string -> (meta * Flow_ctx.t, string) result
(** {!load} over in-memory RCCKPT bytes instead of a path; {!load}
    reads the file and calls this, so both validate identically. *)

val resume :
  ?guard:(Flow_ctx.t -> unit) ->
  path:string ->
  unit ->
  (Flow.outcome, string) result
(** {!load} then {!Rc_core.Flow.resume_on}: finish the flow from the
    saved boundary, bit-identically to never having stopped. *)

val run_with_checkpoints :
  ?every:int ->
  dir:string ->
  name:string ->
  ?guard:(Flow_ctx.t -> unit) ->
  Flow.config ->
  Flow.outcome * (int * string) list
(** {!Rc_core.Flow.run}, writing [dir/name.iter-<k>.ckpt] at every
    [every]-th iteration boundary (default every iteration, always
    including a converged one); returns the outcome and the checkpoints
    written as [(iteration, path)], oldest first.  Creates [dir] and any
    missing parents.  @raise Invalid_argument if [every < 1]. *)

(** {1 Bit-identity digests} *)

val digest_of_ctx : Flow_ctx.t -> string
(** Canonical hex digest of the result-bearing state (placement, skew
    targets, assignment): equal digests iff bit-identical state. *)

val digest_of_outcome : Flow.outcome -> string
(** Same digest over a finished flow — what the serve protocol reports
    so clients can assert checkpoint/resume bit-identity. *)

(** Minimal JSON for machine-readable artifacts (e.g. the bench
    harness's [BENCH_results.json]) and the serve-protocol / checkpoint
    metadata: a pretty-printing emitter plus a strict recursive-descent
    parser.  [of_string (to_string v)] is [Ok v] for every value whose
    floats are finite (nan/infinity are emitted as [null]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** nan/infinity are emitted as [null]. *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Pretty-printed (2-space indent), newline-terminated. *)

val to_line : t -> string
(** Single-line rendering (no trailing newline) for line-delimited
    protocols: same escaping and number formatting as {!to_string},
    without any inserted whitespace. *)

val to_file : string -> t -> unit
(** [to_file path v] writes {!to_string}[ v] to [path] (truncating). *)

val of_string : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed; trailing
    non-whitespace is an error).  Numbers without [.], [e] or [E] that
    fit in [int] parse as {!Int}, every other number as {!Float};
    [\uXXXX] escapes decode to UTF-8 (surrogate pairs supported).
    Errors are ["offset N: message"] strings, never exceptions. *)

val member : string -> t -> t option
(** [member k (Obj fields)] is the first binding of [k]; [None] on
    missing keys and non-objects. *)

val to_int_opt : t -> int option
(** [Int n] and integral [Float]s. *)

val to_float_opt : t -> float option
(** [Float] and [Int] (widened). *)

val to_string_opt : t -> string option
val to_bool_opt : t -> bool option

val to_list_opt : t -> t list option
(** [List items] only. *)

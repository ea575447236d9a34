(** A small report-document model — titled sections of prose and tables
    — with GitHub-Markdown and JSON renderers.

    This module is layout only; it knows nothing about the flow.  The
    paper-style report content is assembled by [Rc_core.Paper_report]
    and rendered by [rotary_cli report]. *)

(** One table cell. Numeric constructors right-align their column in
    Markdown and serialize as JSON numbers. *)
type cell =
  | Str of string
  | Int of int
  | Float of float * int  (** value and decimal places; [nan] renders "-" *)
  | Pct of float  (** rendered ["12.3 %"] in Markdown, a plain number in JSON *)

type table = { title : string; columns : string list; rows : cell list list }

type section = {
  heading : string;
  prose : string;
  tables : table list;
  data : (string * Rc_util.Json.t) list;
      (** extra machine-readable payload (e.g. raw metric snapshots);
          emitted only in the JSON rendering, spliced into the section
          object *)
}

type doc = { title : string; intro : string; sections : section list }

val section :
  ?prose:string ->
  ?tables:table list ->
  ?data:(string * Rc_util.Json.t) list ->
  string ->
  section
(** [section heading] with optional prose, tables and JSON payload. *)

val to_markdown : doc -> string
(** GitHub-flavoured Markdown: [#]/[##]/[###] headings and pipe
    tables. *)

val to_json : doc -> Rc_util.Json.t
(** The whole document as one JSON object (schema in
    [docs/metrics.md]). *)

(** The table model of the repository: typed cells in titled tables,
    and documents of titled sections of prose and tables, with
    fixed-width text, GitHub-Markdown and JSON renderers.

    This module is layout only; it knows nothing about the flow.  Every
    table of the experiment harness (Tables I-VII, the ablations, the
    flow trace, ...) is built in [lib/core] as a {!table}; the
    paper-style report is assembled by [Rc_core.Paper_report] and
    rendered by [rotary_cli report].

    Every renderer formats a cell the same way and raises
    [Invalid_argument] on a row whose length differs from the number of
    columns.  A column right-aligns (in text and in Markdown) when the
    table has rows and every cell of the column is numeric. *)

(** One table cell. Numeric constructors serialize as JSON numbers. *)
type cell =
  | Str of string
  | Int of int
  | Float of float * int  (** value and decimal places; [nan] renders ["-"] *)
  | Pct of float
      (** rendered ["12.3 %"] in text and Markdown ([nan] as ["-"]), a
          plain number in JSON *)

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

val to_text : table -> string
(** Fixed-width text: the title line, a [+---+] rule, the header, a
    rule, the rows and a closing rule, with column widths fitted to the
    content.  No trailing newline. *)

val to_markdown : doc -> string
(** GitHub-flavoured Markdown: [#]/[##]/[###] headings and pipe
    tables. *)

val to_json : doc -> Rc_util.Json.t
(** The whole document as one JSON object (schema in
    [docs/metrics.md]). *)

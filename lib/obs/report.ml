(* The one table model of the repository: typed cells in titled
   tables, grouped into documents of titled sections, rendered to fixed
   width text, GitHub Markdown or JSON.  Deliberately knows nothing
   about the flow — lib/core builds the tables and documents. *)

type cell =
  | Str of string
  | Int of int
  | Float of float * int  (* value, decimal places *)
  | Pct of float  (* rendered "12.3 %" *)

type table = { title : string; columns : string list; rows : cell list list }

type section = {
  heading : string;
  prose : string;
  tables : table list;
  data : (string * Rc_util.Json.t) list;
}

type doc = { title : string; intro : string; sections : section list }

let section ?(prose = "") ?(tables = []) ?(data = []) heading =
  { heading; prose; tables; data }

let cell_text = function
  | Str s -> s
  | Int n -> string_of_int n
  | Float (v, dp) ->
      if Float.is_nan v then "-" else Printf.sprintf "%.*f" dp v
  | Pct v -> if Float.is_nan v then "-" else Printf.sprintf "%.1f %%" v

let cell_is_num = function Str _ -> false | Int _ | Float _ | Pct _ -> true

(* every renderer refuses a row that does not fill the header *)
let check_rows (t : table) =
  let ncols = List.length t.columns in
  List.iter
    (fun row ->
      if List.length row <> ncols then
        invalid_arg (Printf.sprintf "Report: ragged row in table %S" t.title))
    t.rows

(* a column right-aligns when it has rows and every cell in it is a number *)
let numeric_columns (t : table) =
  List.mapi
    (fun i _ ->
      t.rows <> [] && List.for_all (fun row -> cell_is_num (List.nth row i)) t.rows)
    t.columns

let to_text (t : table) =
  check_rows t;
  let rows = List.map (List.map cell_text) t.rows in
  let widths = Array.of_list (List.map String.length t.columns) in
  List.iter (List.iteri (fun i s -> widths.(i) <- max widths.(i) (String.length s))) rows;
  let right = Array.of_list (numeric_columns t) in
  let line cells =
    let pad i s =
      let gap = String.make (widths.(i) - String.length s) ' ' in
      if right.(i) then gap ^ s else s ^ gap
    in
    "| " ^ String.concat " | " (List.mapi pad cells) ^ " |"
  in
  let rule =
    "+"
    ^ String.concat "+" (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "+"
  in
  String.concat "\n"
    ((t.title :: rule :: line t.columns :: rule :: List.map line rows) @ [ rule ])

let to_markdown doc =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# %s" doc.title;
  if doc.intro <> "" then begin
    line "";
    line "%s" doc.intro
  end;
  List.iter
    (fun sec ->
      line "";
      line "## %s" sec.heading;
      if sec.prose <> "" then begin
        line "";
        line "%s" sec.prose
      end;
      List.iter
        (fun (t : table) ->
          line "";
          if t.title <> "" then begin
            line "### %s" t.title;
            line ""
          end;
          check_rows t;
          line "| %s |" (String.concat " | " t.columns);
          let aligns =
            List.map (fun num -> if num then "---:" else "---") (numeric_columns t)
          in
          line "| %s |" (String.concat " | " aligns);
          List.iter
            (fun row -> line "| %s |" (String.concat " | " (List.map cell_text row)))
            t.rows)
        sec.tables)
    doc.sections;
  Buffer.contents buf

let cell_json =
  let module J = Rc_util.Json in
  function
  | Str s -> J.String s
  | Int n -> J.Int n
  | Float (v, _) -> J.Float v
  | Pct v -> J.Float v

let table_json (t : table) =
  let module J = Rc_util.Json in
  check_rows t;
  J.Obj
    [
      ("title", J.String t.title);
      ("columns", J.List (List.map (fun c -> J.String c) t.columns));
      ("rows", J.List (List.map (fun row -> J.List (List.map cell_json row)) t.rows));
    ]

let to_json doc =
  let module J = Rc_util.Json in
  J.Obj
    [
      ("title", J.String doc.title);
      ("intro", J.String doc.intro);
      ( "sections",
        J.List
          (List.map
             (fun sec ->
               J.Obj
                 (("heading", J.String sec.heading)
                 :: ("prose", J.String sec.prose)
                 :: ("tables", J.List (List.map table_json sec.tables))
                 :: sec.data))
             doc.sections) );
    ]

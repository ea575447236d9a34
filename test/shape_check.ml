(* The paper's shape as checked bounds.

   EXPERIMENTS.shape (beside EXPERIMENTS.md) holds one bound per line,
   five fields separated by '|':

     Table IV | Tap Imp | * | >= 30 | <the EXPERIMENTS.md sentence>

   the table (the label before its title's colon), the column, the
   circuit ('*' for every row), a comparison (>=, >, <=, <) against a
   constant or against another column of the same row, and the claim
   the bound encodes.  Blank lines and lines starting with '#' are
   comments.

   [check] reads the tables from their Rc_obs.Report JSON (every table
   of every section of a document), so it checks exactly what a run
   rendered.  A row is addressed by its first cell (the circuit). *)

module J = Rc_util.Json

type op = Ge | Gt | Le | Lt
type rhs = Const of float | Column of string

type bound = {
  table : string;
  column : string;
  circuit : string option;  (* None: every row *)
  op : op;
  rhs : rhs;
  claim : string;
}

type outcome = {
  checked : int;  (* (bound, row) pairs compared *)
  failures : string list;  (* one line per failing (bound, row) *)
  skipped : string list;  (* one line per (bound, circuit) without a row *)
}

let op_text = function Ge -> ">=" | Gt -> ">" | Le -> "<=" | Lt -> "<"

let parse text =
  let parse_line n line =
    let fail msg = failwith (Printf.sprintf "shape line %d: %s" n msg) in
    match List.map String.trim (String.split_on_char '|' line) with
    | [ table; column; circuit; cmp; claim ] ->
        let op, rest =
          match String.index_opt cmp ' ' with
          | None -> fail ("no operand in " ^ cmp)
          | Some k -> (String.sub cmp 0 k, String.trim (String.sub cmp k (String.length cmp - k)))
        in
        let op =
          match op with
          | ">=" -> Ge
          | ">" -> Gt
          | "<=" -> Le
          | "<" -> Lt
          | o -> fail ("unknown comparison " ^ o)
        in
        let rhs = match float_of_string_opt rest with Some v -> Const v | None -> Column rest in
        let circuit = if circuit = "*" then None else Some circuit in
        { table; column; circuit; op; rhs; claim }
    | _ -> fail "expected 5 fields separated by '|'"
  in
  List.concat
    (List.mapi
       (fun i line ->
         let l = String.trim line in
         if l = "" || l.[0] = '#' then [] else [ parse_line (i + 1) l ])
       (String.split_on_char '\n' text))

(* the shape file, found from the test directory (dune runtest) or the
   repository root (dune exec) *)
let load () =
  let path =
    List.find Sys.file_exists [ "../EXPERIMENTS.shape"; "EXPERIMENTS.shape" ]
  in
  parse (In_channel.with_open_bin path In_channel.input_all)

let list_of key j = Option.value ~default:[] (Option.bind (J.member key j) J.to_list_opt)
let string_of j = Option.value ~default:"" (J.to_string_opt j)

(* a nan cell is JSON null: it meets no bound *)
let value cells i = Option.value ~default:nan (J.to_float_opt (List.nth cells i))

(* every table of a Report document's JSON, keyed by its label *)
let tables json =
  List.concat_map
    (fun sec ->
      List.map
        (fun t ->
          let title = Option.fold ~none:"" ~some:string_of (J.member "title" t) in
          let label =
            match String.index_opt title ':' with Some k -> String.sub title 0 k | None -> title
          in
          (label, t))
        (list_of "tables" sec))
    (list_of "sections" json)

let check ~circuits bounds json =
  let tables = tables json in
  let checked = ref 0 and failures = ref [] and skipped = ref [] in
  List.iter
    (fun b ->
      let t =
        match List.filter (fun (l, _) -> l = b.table) tables with
        | [ (_, t) ] -> t
        | [] -> failwith (Printf.sprintf "shape: unknown table %S" b.table)
        | _ -> failwith (Printf.sprintf "shape: more than one table is labelled %S" b.table)
      in
      let columns = List.map string_of (list_of "columns" t) in
      let index name =
        match List.filter (fun (_, c) -> c = name) (List.mapi (fun i c -> (i, c)) columns) with
        | [ (i, _) ] -> i
        | [] -> failwith (Printf.sprintf "shape: %s has no column %S" b.table name)
        | _ -> failwith (Printf.sprintf "shape: %S matches more than one column of %s" name b.table)
      in
      let col = index b.column in
      let rhs_of =
        match b.rhs with
        | Const r -> fun _ -> (r, Printf.sprintf "%g" r)
        | Column name ->
            let i = index name in
            fun cells ->
              let r = value cells i in
              (r, Printf.sprintf "%s (%g)" name r)
      in
      let rows =
        List.filter_map
          (fun r ->
            match J.to_list_opt r with
            | Some (first :: _ as cells) -> Option.map (fun c -> (c, cells)) (J.to_string_opt first)
            | _ -> None)
          (list_of "rows" t)
      in
      let wanted = match b.circuit with Some c -> [ c ] | None -> circuits in
      List.iter
        (fun c ->
          if not (List.mem_assoc c rows) then
            skipped := Printf.sprintf "%s | %s | %s" b.table b.column c :: !skipped)
        wanted;
      List.iter
        (fun (c, cells) ->
          if b.circuit = None || b.circuit = Some c then begin
            incr checked;
            let v = value cells col in
            let r, rhs_text = rhs_of cells in
            let ok =
              match b.op with Ge -> v >= r | Gt -> v > r | Le -> v <= r | Lt -> v < r
            in
            if not ok then
              failures :=
                Printf.sprintf "%s | %s | %s: %g is not %s %s -- claim: %s" b.table b.column c v
                  (op_text b.op) rhs_text b.claim
                :: !failures
          end)
        rows)
    bounds;
  { checked = !checked; failures = List.rev !failures; skipped = List.rev !skipped }

(* Fail when an optional parameter of a library value has no caller that
   passes it.

   Every [?label] of a [val] in lib/*/*.mli needs a caller in lib/, bin/,
   bench/, perfbench/ or examples/ that passes a value for it — as
   [~label:v] or by forwarding [?label] — or a line in
   scripts/optional_params.allow of the form

       <mli> <val> ?<label> <seam|oracle> <reason>

     seam     a test drives process, I/O or parser code through it
     oracle   a test needs the value to reach a case the callers never do

   An allowlist line whose parameter now has a caller, or no longer
   exists, also fails the check, so the list cannot go stale.  A value
   that no caller passes is a constant: write it as one.

   Callers come from the typedtrees in the .cmt files, not from a word
   match.  The function of an application is resolved by the typer
   itself (through opens, [module M = ...] aliases and the library's
   own alias module), so an application names its callee by the
   location of the callee's declaration: the [val] in another unit's
   .mli, or the top-level [let] of the same unit.  An argument the
   caller omitted shows up as a compiler-inserted [None] at
   [Location.none], which does not count as passing it.  Run
   [dune build @check] first, so that the executables have .cmt files
   too (the scan stops if a caller's .ml has none); then, from the root
   of the checkout,

       dune exec scripts/optional_params.exe

   prints one line per finding and exits 1 if there is any. *)

open Typedtree

let caller_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]
let reasons = [ "seam"; "oracle" ]
let top s = match String.index_opt s '/' with Some i -> String.sub s 0 i | None -> s

(* every .cmt and .cmti under the build root, read once, keyed by the
   source file the compiler was given (e.g. "lib/core/flow.ml") *)
let read_units build =
  let out = ref [] in
  let rec walk dir =
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then walk p
        else if Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti" then
          let cmt = Cmt_format.read_cmt p in
          match cmt.Cmt_format.cmt_sourcefile with
          | Some src
            when List.mem (top src) caller_dirs
                 && (Filename.check_suffix src ".ml" || Filename.check_suffix src ".mli") ->
              out := (src, cmt) :: !out
          | _ -> ())
      (Sys.readdir dir)
  in
  walk build;
  !out

let rec optional_labels ty =
  match Types.get_desc ty with
  | Types.Tarrow (Asttypes.Optional l, _, ret, _) -> l :: optional_labels ret
  | Types.Tarrow (_, _, ret, _) -> optional_labels ret
  | Types.Tpoly (t, _) -> optional_labels t
  | _ -> []

let key (loc : Location.t) = (loc.loc_start.pos_fname, loc.loc_start.pos_cnum)

(* (mli, val name, labels), keyed by the [val]'s location: the
   location every other unit's reference to it carries *)
let exported units =
  let vals = Hashtbl.create 512 in
  let rec sig_items mli prefix items =
    List.iter
      (fun item ->
        match item.sig_desc with
        | Tsig_value vd ->
            let labels = optional_labels vd.val_desc.ctyp_type in
            Hashtbl.replace vals (key vd.val_loc) (mli, prefix ^ vd.val_name.txt, labels)
        | Tsig_module { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature s; _ }; _ }
          ->
            sig_items mli (prefix ^ m ^ ".") s.sig_items
        | _ -> ())
      items
  in
  List.iter
    (fun (src, cmt) ->
      match cmt.Cmt_format.cmt_annots with
      | Cmt_format.Interface s when top src = "lib" -> sig_items src "" s.sig_items
      | _ -> ())
    units;
  vals

(* the location of every top-level [let] of a library unit, mapped to
   the [val] of its .mli that it implements: references from within the
   unit point at the [let], not at the [val] *)
let definitions units vals =
  let by_name = Hashtbl.create 512 in
  Hashtbl.iter (fun k (mli, name, _) -> Hashtbl.replace by_name (mli, name) k) vals;
  let defs = Hashtbl.create 512 in
  let rec str_items mli prefix items =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match vb.vb_pat.pat_desc with
                | Tpat_var (_, name) -> (
                    match Hashtbl.find_opt by_name (mli, prefix ^ name.txt) with
                    | Some k -> Hashtbl.replace defs (key vb.vb_pat.pat_loc) k
                    | None -> ())
                | _ -> ())
              vbs
        | Tstr_module { mb_name = { txt = Some m; _ }; mb_expr; _ } -> (
            let rec body me =
              match me.mod_desc with
              | Tmod_structure s -> Some s
              | Tmod_constraint (me, _, _, _) -> body me
              | _ -> None
            in
            match body mb_expr with
            | Some s -> str_items mli (prefix ^ m ^ ".") s.str_items
            | None -> ())
        | _ -> ())
      items
  in
  List.iter
    (fun (src, cmt) ->
      match cmt.Cmt_format.cmt_annots with
      | Cmt_format.Implementation s when top src = "lib" ->
          str_items (Filename.chop_suffix src ".ml" ^ ".mli") "" s.str_items
      | _ -> ())
    units;
  defs

(* (val key, label) for every optional argument a caller passes *)
let passed units vals defs =
  let seen = Hashtbl.create 256 in
  let resolve loc =
    let k = key loc in
    if Hashtbl.mem vals k then Some k else Hashtbl.find_opt defs k
  in
  let expr sub e =
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) -> (
        match resolve vd.Types.val_loc with
        | None -> ()
        | Some k ->
            List.iter
              (function
                | Asttypes.Optional l, Some arg when arg.exp_loc <> Location.none ->
                    Hashtbl.replace seen (k, l) ()
                | _ -> ())
              args)
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  List.iter
    (fun (_, cmt) ->
      match cmt.Cmt_format.cmt_annots with
      | Cmt_format.Implementation s -> it.structure it s
      | _ -> ())
    units;
  seen

(* .ml files under the caller directories that left no .cmt *)
let uncompiled root units =
  let have = Hashtbl.create 256 in
  List.iter (fun (src, _) -> Hashtbl.replace have src ()) units;
  let out = ref [] in
  let rec walk rel =
    Array.iter
      (fun f ->
        let r = Filename.concat rel f in
        if Sys.is_directory (Filename.concat root r) then walk r
        else if Filename.check_suffix f ".ml" && not (Hashtbl.mem have r) then out := r :: !out)
      (Sys.readdir (Filename.concat root rel))
  in
  List.iter (fun d -> if Sys.file_exists (Filename.concat root d) then walk d) caller_dirs;
  List.sort compare !out

(* entries of the allowlist at [root]/[path], and its malformed lines *)
let read_allowlist root path =
  let entries = Hashtbl.create 64 and errors = ref [] in
  In_channel.with_open_text (Filename.concat root path) In_channel.input_lines
  |> List.iteri (fun i line ->
         let line = String.trim line in
         let where = Printf.sprintf "%s:%d" path (i + 1) in
         if line <> "" && line.[0] <> '#' then
           match String.split_on_char ' ' line |> List.filter (( <> ) "") with
           | mli :: name :: label :: kind :: _ :: _
             when String.length label > 1 && label.[0] = '?' && List.mem kind reasons ->
               let k = (mli, name, String.sub label 1 (String.length label - 1)) in
               if Hashtbl.mem entries k then
                 errors := Printf.sprintf "%s: %s %s %s is listed twice" where mli name label :: !errors
               else Hashtbl.replace entries k where
           | _ ->
               errors :=
                 Printf.sprintf "%s: want `<mli> <val> ?<label> <%s> <reason>`" where
                   (String.concat "|" reasons)
                 :: !errors);
  (entries, List.rev !errors)

let () =
  let root = Sys.getcwd () in
  let build = Filename.concat root "_build/default" in
  if not (Sys.file_exists build) then begin
    prerr_endline "optional_params: no _build/default here; run from the checkout root after `dune build @check`";
    exit 2
  end;
  let units = read_units build in
  (match uncompiled root units with
  | [] -> ()
  | missing ->
      Printf.eprintf "optional_params: no .cmt for %s; run `dune build @check` first\n"
        (String.concat ", " missing);
      exit 2);
  let vals = exported units in
  let defs = definitions units vals in
  let seen = passed units vals defs in
  let params =
    Hashtbl.fold
      (fun k (mli, name, labels) acc ->
        List.map (fun l -> ((mli, name, l), Hashtbl.mem seen (k, l))) labels @ acc)
      vals []
    |> List.sort_uniq compare
  in
  let allowed, errors = read_allowlist root "scripts/optional_params.allow" in
  let findings = ref errors in
  let add fmt = Printf.ksprintf (fun s -> findings := s :: !findings) fmt in
  List.iter
    (fun ((mli, name, l), is_passed) ->
      if (not is_passed) && not (Hashtbl.mem allowed (mli, name, l)) then
        add "%s %s ?%s: no caller outside test/ passes it; make it a constant, or add an allowlist line"
          mli name l)
    params;
  Hashtbl.iter
    (fun (mli, name, l) where ->
      match List.assoc_opt (mli, name, l) params with
      | None -> add "%s: %s %s ?%s is no longer a parameter; drop the line" where mli name l
      | Some true -> add "%s: %s %s ?%s now has a caller; drop the line" where mli name l
      | Some false -> ())
    allowed;
  let findings = List.sort compare !findings in
  List.iter print_endline findings;
  Printf.printf "optional_params: %d optional parameters on %d values, %d allowlisted, %d finding(s)\n"
    (List.length params)
    (List.length (List.sort_uniq compare (List.map (fun ((m, n, _), _) -> (m, n)) params)))
    (Hashtbl.length allowed) (List.length findings);
  exit (if findings = [] then 0 else 1)

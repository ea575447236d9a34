(* .bench surface syntax:
     INPUT(sig)  OUTPUT(sig)  dest = GATE(src, src, ...)
   Signals name the cell driving them; every referenced signal must be
   defined by an INPUT or a gate. *)

let gate_types =
  [ "AND"; "NAND"; "OR"; "NOR"; "XOR"; "XNOR"; "NOT"; "BUF"; "BUFF" ]

let known_ff = [ "DFF"; "DFFSR" ]

type def =
  | Din  (* primary input *)
  | Dgate of string list  (* logic gate with source signals *)
  | Dff of string list

let parse_lines text =
  let defs = Hashtbl.create 64 in
  let outputs = ref [] in
  let order = ref [] in
  let exception Fail of string in
  let fail lineno msg = raise (Fail (Printf.sprintf "line %d: %s" lineno msg)) in
  try
    String.split_on_char '\n' text
    |> List.iteri (fun idx raw ->
           let lineno = idx + 1 in
           let line = String.trim raw in
           if line = "" || line.[0] = '#' then ()
           else begin
             let paren_arg prefix =
               (* PREFIX(arg) *)
               let plen = String.length prefix in
               if
                 String.length line > plen + 1
                 && String.uppercase_ascii (String.sub line 0 plen) = prefix
                 && line.[plen] = '('
                 && line.[String.length line - 1] = ')'
               then Some (String.trim (String.sub line (plen + 1) (String.length line - plen - 2)))
               else None
             in
             match (paren_arg "INPUT", paren_arg "OUTPUT") with
             | Some s, _ ->
                 if s = "" then fail lineno "empty INPUT name";
                 if Hashtbl.mem defs s then fail lineno ("duplicate definition of " ^ s);
                 Hashtbl.replace defs s Din;
                 order := s :: !order
             | None, Some s ->
                 if s = "" then fail lineno "empty OUTPUT name";
                 outputs := s :: !outputs
             | None, None -> (
                 match String.index_opt line '=' with
                 | None -> fail lineno "expected INPUT(..), OUTPUT(..) or assignment"
                 | Some eq ->
                     let dest = String.trim (String.sub line 0 eq) in
                     let rhs = String.trim (String.sub line (eq + 1) (String.length line - eq - 1)) in
                     if dest = "" then fail lineno "empty destination";
                     if Hashtbl.mem defs dest then fail lineno ("duplicate definition of " ^ dest);
                     (match (String.index_opt rhs '(', String.rindex_opt rhs ')') with
                     | Some o, Some c when c > o ->
                         let gate = String.uppercase_ascii (String.trim (String.sub rhs 0 o)) in
                         let args =
                           String.sub rhs (o + 1) (c - o - 1)
                           |> String.split_on_char ','
                           |> List.map String.trim
                           |> List.filter (fun s -> s <> "")
                         in
                         if args = [] then fail lineno "gate without inputs";
                         if List.mem gate known_ff then Hashtbl.replace defs dest (Dff args)
                         else if List.mem gate gate_types then
                           Hashtbl.replace defs dest (Dgate args)
                         else fail lineno ("unknown gate type " ^ gate);
                         order := dest :: !order
                     | _ -> fail lineno "malformed gate expression"))
           end);
    Ok (List.rev !order, defs, List.rev !outputs)
  with Fail m -> Error m

let pad_ring_positions chip count =
  let open Rc_geom in
  let w = Rect.width chip and h = Rect.height chip in
  let perimeter = 2.0 *. (w +. h) in
  List.init (max count 1) (fun i ->
      let d = float_of_int i /. float_of_int (max count 1) *. perimeter in
      if d < w then Point.make (chip.Rect.xmin +. d) chip.Rect.ymin
      else if d < w +. h then Point.make chip.Rect.xmax (chip.Rect.ymin +. (d -. w))
      else if d < (2.0 *. w) +. h then Point.make (chip.Rect.xmax -. (d -. w -. h)) chip.Rect.ymax
      else Point.make chip.Rect.xmin (chip.Rect.ymax -. (d -. (2.0 *. w) -. h)))

let of_string ?(name = "bench") ~chip text =
  match parse_lines text with
  | Error m -> Error m
  | Ok (order, defs, outputs) ->
      (* cell ids: definition order, then one output pad per OUTPUT *)
      let id_of = Hashtbl.create 64 in
      List.iteri (fun i s -> Hashtbl.replace id_of s i) order;
      let n_defs = List.length order in
      let n = n_defs + List.length outputs in
      let kinds = Array.make (max n 1) Netlist.Logic in
      List.iteri
        (fun i s ->
          kinds.(i) <-
            (match Hashtbl.find defs s with
            | Din -> Netlist.Input_pad
            | Dgate _ -> Netlist.Logic
            | Dff _ -> Netlist.Flipflop))
        order;
      List.iteri (fun k _ -> kinds.(n_defs + k) <- Netlist.Output_pad) outputs;
      (* sinks per driving signal *)
      let sinks = Hashtbl.create 64 in
      let add_sink src dest_id =
        Hashtbl.replace sinks src (dest_id :: Option.value (Hashtbl.find_opt sinks src) ~default:[])
      in
      let missing = ref None in
      List.iteri
        (fun i s ->
          match Hashtbl.find defs s with
          | Din -> ()
          | Dgate args | Dff args ->
              List.iter
                (fun a ->
                  if not (Hashtbl.mem id_of a) then missing := Some a else add_sink a i)
                args)
        order;
      List.iteri
        (fun k s ->
          if not (Hashtbl.mem id_of s) then missing := Some s else add_sink s (n_defs + k))
        outputs;
      (match !missing with
      | Some s -> Error (Printf.sprintf "undefined signal %s" s)
      | None ->
          let nets =
            List.filter_map
              (fun s ->
                match Hashtbl.find_opt sinks s with
                | Some l when l <> [] ->
                    Some
                      {
                        Netlist.driver = Hashtbl.find id_of s;
                        sinks = Array.of_list (List.rev l);
                      }
                | _ -> None)
              order
          in
          let pad_ids =
            List.filteri (fun i _ -> kinds.(i) = Netlist.Input_pad) (List.init n_defs Fun.id)
            @ List.init (List.length outputs) (fun k -> n_defs + k)
          in
          let pad_positions =
            List.combine pad_ids (pad_ring_positions chip (List.length pad_ids))
          in
          (match Netlist.make ~name ~kinds ~nets:(Array.of_list nets) ~pad_positions with
          | nl -> Ok nl
          | exception Invalid_argument m -> Error m))

let read_file ~chip path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  of_string ~name:(Filename.remove_extension (Filename.basename path)) ~chip text

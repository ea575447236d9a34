(* Minimal JSON for machine-readable artifacts (BENCH_results), the
   serve protocol and checkpoint metadata: a pretty-printing emitter
   plus a strict recursive-descent parser.  The parser exists because
   the flow service reads requests and checkpoint headers back; it
   accepts exactly the JSON grammar (RFC 8259), no extensions. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* JSON has no nan/infinity *)
let number f =
  if Float.is_nan f || Float.abs f = Float.infinity then "null"
  else Printf.sprintf "%.12g" f

let rec emit buf indent v =
  let pad n = Buffer.add_string buf (String.make n ' ') in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (number f)
  | String s -> escape buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          emit buf (indent + 2) item)
        items;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          escape buf k;
          Buffer.add_string buf ": ";
          emit buf (indent + 2) item)
        fields;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  emit buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let to_file path v =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string v))

(* single-line rendering for line-delimited protocols *)
let rec emit_line buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (number f)
  | String s -> escape buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          emit_line buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          emit_line buf item)
        fields;
      Buffer.add_char buf '}'

let to_line v =
  let buf = Buffer.create 256 in
  emit_line buf v;
  Buffer.contents buf

(* ---- parser ----------------------------------------------------------- *)

exception Parse_error of int * string

let fail pos msg = raise (Parse_error (pos, msg))

(* strict recursive-descent over the input string; [pos] is a cursor *)
type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let n = String.length c.s in
  while
    c.pos < n
    && match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance c
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail c.pos (Printf.sprintf "expected %c, found %c" ch x)
  | None -> fail c.pos (Printf.sprintf "expected %c, found end of input" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c.pos (Printf.sprintf "invalid literal (expected %s)" word)

(* UTF-8 encode one scalar value (the \uXXXX path) *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex4 c =
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek c with
    | Some ch ->
        let d =
          match ch with
          | '0' .. '9' -> Char.code ch - Char.code '0'
          | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
          | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
          | _ -> fail c.pos "invalid \\u escape (expected hex digit)"
        in
        v := (!v * 16) + d
    | None -> fail c.pos "unterminated \\u escape");
    advance c
  done;
  !v

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c.pos "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
        advance c;
        (match peek c with
        | None -> fail c.pos "unterminated escape"
        | Some ch ->
            advance c;
            (match ch with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let u = hex4 c in
                if u >= 0xD800 && u <= 0xDBFF then begin
                  (* high surrogate: require the low half *)
                  expect c '\\';
                  expect c 'u';
                  let lo = hex4 c in
                  if lo < 0xDC00 || lo > 0xDFFF then
                    fail c.pos "invalid low surrogate"
                  else
                    add_utf8 buf
                      (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
                end
                else if u >= 0xDC00 && u <= 0xDFFF then
                  fail c.pos "unpaired low surrogate"
                else add_utf8 buf u
            | _ -> fail (c.pos - 1) "invalid escape character"));
        go ()
    | Some ch when Char.code ch < 0x20 -> fail c.pos "unescaped control character"
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  if peek c = Some '-' then advance c;
  let digits () =
    let seen = ref false in
    let rec go () =
      match peek c with
      | Some ('0' .. '9') ->
          seen := true;
          advance c;
          go ()
      | _ -> ()
    in
    go ();
    if not !seen then fail c.pos "expected digit"
  in
  (* integer part: 0 | [1-9][0-9]* *)
  (match peek c with
  | Some '0' -> advance c
  | Some ('1' .. '9') -> digits ()
  | _ -> fail c.pos "expected digit");
  (match peek c with
  | Some '.' ->
      is_float := true;
      advance c;
      digits ()
  | _ -> ());
  (match peek c with
  | Some ('e' | 'E') ->
      is_float := true;
      advance c;
      (match peek c with Some ('+' | '-') -> advance c | _ -> ());
      digits ()
  | _ -> ());
  let text = String.sub c.s start (c.pos - start) in
  if !is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text) (* out of int range *)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c.pos "expected a JSON value, found end of input"
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          fields := (k, v) :: !fields;
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              members ()
          | Some '}' -> advance c
          | _ -> fail c.pos "expected , or } in object"
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value c in
          items := v :: !items;
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              elements ()
          | Some ']' -> advance c
          | _ -> fail c.pos "expected , or ] in array"
        in
        elements ();
        List (List.rev !items)
      end
  | Some '"' -> String (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c.pos (Printf.sprintf "unexpected character %c" ch)

let of_string s =
  let c = { s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> String.length s then fail c.pos "trailing characters after value";
    v
  with
  | v -> Ok v
  | exception Parse_error (pos, msg) -> Error (Printf.sprintf "offset %d: %s" pos msg)
  | exception Failure msg -> Error (Printf.sprintf "offset %d: %s" c.pos msg)

(* ---- accessors -------------------------------------------------------- *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f && Float.abs f <= 1e15 -> Some (int_of_float f)
  | _ -> None

let to_float_opt = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None

let to_list_opt = function List l -> Some l | _ -> None

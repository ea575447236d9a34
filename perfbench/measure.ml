(* Sampling helpers shared by the workloads: timing, percentiles,
   process memory, the pass/fail tally behind the result's
   [attempted]/[failed] fields, and the result line itself. *)

let now = Rc_util.Timer.now_s

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sum = List.fold_left ( +. ) 0.0

(* Linear-interpolated percentile; [nan] on an empty sample. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. Float.floor rank in
    (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)

let median xs = percentile xs 0.5

(* A tail percentile is reported only where at least ten samples lie
   beyond it: short samples fall back to the highest percentile that
   still has ten, but never below the median. *)
let tail xs p =
  let n = float_of_int (List.length xs) in
  percentile xs (Float.max 0.5 (Float.min p (1.0 -. (10.0 /. n))))

(* VmHWM of a process in MiB; [nan] once the process is gone. *)
let peak_rss_mb ?(pid = "self") () =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> float_of_int kb /. 1024.0
            | None -> scan ())
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* Every checked operation counts as attempted; a wrong digest, an error
   envelope, a timeout, a dropped reply or a dirty teardown counts as
   failed.  Shared by the client threads of serve_mixed. *)
type tally = { mutable attempted : int; mutable failed : int; lock : Mutex.t }

let tally () = { attempted = 0; failed = 0; lock = Mutex.create () }

let check t ok fmt =
  Printf.ksprintf
    (fun msg ->
      Mutex.protect t.lock (fun () ->
          t.attempted <- t.attempted + 1;
          if not ok then t.failed <- t.failed + 1);
      if not ok then prerr_endline ("FAIL " ^ msg))
    fmt

(* Human-readable listing, printed above the result line. *)
let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun (name, unit_, v) -> Printf.printf "  %-32s %16.6g %s\n" name v unit_) rows

(* The last line of stdout: exactly [correct], [attempted], [failed]
   and [metrics], every value with all its digits. *)
let print_result t rows =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let fields =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit_)
      rows
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (t.failed = 0) (max 1 t.attempted) t.failed (String.concat ", " fields)

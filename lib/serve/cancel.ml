(* Deadline checks for running jobs.

   A token is a job's optional deadline, polled by the job at its
   cancellation points ([check]; the flow checks at every stage boundary
   via Flow's guard hook).  Deadlines are absolute points on
   Rc_util.Timer's monotonic clock, so wall-clock jumps can neither fire
   nor postpone them. *)

exception Cancelled of string

type t = float option (* Timer.now_s seconds, absolute *)

let create ?deadline () = deadline

let reason = function
  | Some d when Rc_util.Timer.now_s () > d -> Some "deadline exceeded"
  | _ -> None

let check t = match reason t with Some r -> raise (Cancelled r) | None -> ()

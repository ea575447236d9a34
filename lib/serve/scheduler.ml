(* Deadline-aware priority job scheduler over worker domains.

   Jobs are CPU-bound flow/sweep/report runs, so cross-job parallelism
   comes from dedicated worker domains; inside a worker every
   Rc_par.Pool primitive is forced sequential (Pool.sequential_scope),
   because two concurrent pool regions would race on the pool's single
   region slot — and because the pool's determinism contract makes
   sequential execution bit-identical anyway.  Parallelism is therefore
   across jobs, not within one, exactly the serving trade-off.

   Scheduling: highest priority first, FIFO within a priority.  A job's
   deadline (absolute, monotonic clock) is enforced twice — a job whose
   deadline passed while queued is cancelled without starting, and a
   running job's token trips at the next stage boundary (the flow's
   guard hook polls it).  Admission is bounded: submit rejects with a
   reason once max_pending jobs are queued, so a saturated server fails
   fast instead of building unbounded backlog.

   Completion: the domain that took a job calls its [on_done] outside
   the lock, then counts the job finished.  A job is held only by the
   queue and by the domain running it, so nothing of it outlives its
   [on_done]. *)

type outcome =
  | Done of Rc_util.Json.t
  | Failed of string
  | Cancelled of string

type finished = { id : int; outcome : outcome; wait_s : float; run_s : float }

type job = {
  jid : int;
  priority : int;
  token : Cancel.t;
  work : Cancel.t -> Rc_util.Json.t;
  on_done : finished -> unit;
  submitted_s : float;  (* monotonic *)
}

type counts = {
  submitted : int;
  rejected : int;
  completed : int;  (* Done *)
  failed : int;
  cancelled : int;
  pending : int;
  running : int;
}

type t = {
  lock : Mutex.t;
  work_cond : Condition.t;  (* signalled on submit and on quit *)
  done_cond : Condition.t;  (* broadcast whenever a job finishes *)
  max_pending : int;
  mutable pending : job list;  (* unordered; workers pick by (priority, id) *)
  mutable next_id : int;
  mutable n_running : int;  (* taken by a domain, on_done not yet returned *)
  mutable accepting : bool;
  mutable quit : bool;
  mutable workers : unit Domain.t array;
  (* statistics *)
  mutable n_submitted : int;
  mutable n_rejected : int;
  mutable n_completed : int;
  mutable n_failed : int;
  mutable n_cancelled : int;
}

(* serve-level observability, alongside the solver metrics *)
let m_submitted = Rc_obs.Metrics.counter "serve.jobs.submitted"
let m_rejected = Rc_obs.Metrics.counter "serve.jobs.rejected"
let m_completed = Rc_obs.Metrics.counter "serve.jobs.completed"
let m_failed = Rc_obs.Metrics.counter "serve.jobs.failed"
let m_cancelled = Rc_obs.Metrics.counter "serve.jobs.cancelled"
let m_queue_depth = Rc_obs.Metrics.gauge "serve.queue.depth"
let m_job_wall = Rc_obs.Metrics.timer "serve.job.wall"

(* pick the best queued job: highest priority, then FIFO by id *)
let take_best_locked t =
  match t.pending with
  | [] -> None
  | first :: rest ->
      let best =
        List.fold_left
          (fun best j ->
            if j.priority > best.priority || (j.priority = best.priority && j.jid < best.jid)
            then j
            else best)
          first rest
      in
      t.pending <- List.filter (fun j -> j.jid <> best.jid) t.pending;
      Rc_obs.Metrics.set_gauge m_queue_depth (float_of_int (List.length t.pending));
      Some best

(* a job whose deadline passed while it was queued never starts *)
let run_job job =
  let started_s = Rc_util.Timer.now_s () in
  let outcome, run_s =
    match Cancel.reason job.token with
    | Some r -> (Cancelled (r ^ " (before start)"), 0.0)
    | None ->
        let outcome =
          match Rc_par.Pool.sequential_scope (fun () -> job.work job.token) with
          | v -> Done v
          | exception Cancel.Cancelled reason -> Cancelled reason
          | exception e -> Failed (Printexc.to_string e)
        in
        let run_s = Rc_util.Timer.now_s () -. started_s in
        Rc_obs.Metrics.add_time m_job_wall run_s;
        (outcome, run_s)
  in
  { id = job.jid; outcome; wait_s = started_s -. job.submitted_s; run_s }

let finish t job =
  let f = run_job job in
  (try job.on_done f
   with e ->
     Printf.eprintf "rotary scheduler: on_done of job %d raised %s\n%!" f.id
       (Printexc.to_string e));
  Mutex.protect t.lock (fun () ->
      t.n_running <- t.n_running - 1;
      (match f.outcome with
      | Done _ ->
          t.n_completed <- t.n_completed + 1;
          Rc_obs.Metrics.incr m_completed
      | Failed _ ->
          t.n_failed <- t.n_failed + 1;
          Rc_obs.Metrics.incr m_failed
      | Cancelled _ ->
          t.n_cancelled <- t.n_cancelled + 1;
          Rc_obs.Metrics.incr m_cancelled);
      Condition.broadcast t.done_cond)

(* sleep until a job is available or the scheduler quits *)
let rec next_locked t =
  match take_best_locked t with
  | Some job ->
      t.n_running <- t.n_running + 1;
      Some job
  | None ->
      if t.quit then None
      else begin
        Condition.wait t.work_cond t.lock;
        next_locked t
      end

let worker t () =
  let rec loop () =
    match Mutex.protect t.lock (fun () -> next_locked t) with
    | None -> ()
    | Some job ->
        finish t job;
        loop ()
  in
  loop ()

let create ?(workers = 2) ?(max_pending = 64) () =
  if workers < 1 then invalid_arg "Scheduler.create: workers must be >= 1";
  if max_pending < 1 then invalid_arg "Scheduler.create: max_pending must be >= 1";
  let t =
    {
      lock = Mutex.create ();
      work_cond = Condition.create ();
      done_cond = Condition.create ();
      max_pending;
      pending = [];
      next_id = 1;
      n_running = 0;
      accepting = true;
      quit = false;
      workers = [||];
      n_submitted = 0;
      n_rejected = 0;
      n_completed = 0;
      n_failed = 0;
      n_cancelled = 0;
    }
  in
  t.workers <- Array.init workers (fun _ -> Domain.spawn (worker t));
  t

let submit t ?(priority = 0) ?deadline_s ~on_done work =
  let deadline = Option.map (fun d -> Rc_util.Timer.now_s () +. d) deadline_s in
  Mutex.protect t.lock (fun () ->
      if not t.accepting then begin
        t.n_rejected <- t.n_rejected + 1;
        Rc_obs.Metrics.incr m_rejected;
        Error "draining: server is shutting down"
      end
      else if List.length t.pending >= t.max_pending then begin
        t.n_rejected <- t.n_rejected + 1;
        Rc_obs.Metrics.incr m_rejected;
        Error
          (Printf.sprintf "queue saturated: %d jobs pending >= max_pending %d"
             (List.length t.pending) t.max_pending)
      end
      else begin
        let job =
          {
            jid = t.next_id;
            priority;
            token = Cancel.create ?deadline ();
            work;
            on_done;
            submitted_s = Rc_util.Timer.now_s ();
          }
        in
        t.next_id <- t.next_id + 1;
        t.pending <- job :: t.pending;
        t.n_submitted <- t.n_submitted + 1;
        Rc_obs.Metrics.incr m_submitted;
        Rc_obs.Metrics.set_gauge m_queue_depth (float_of_int (List.length t.pending));
        Condition.signal t.work_cond;
        Ok ()
      end)

let counts t =
  Mutex.protect t.lock (fun () ->
      {
        submitted = t.n_submitted;
        rejected = t.n_rejected;
        completed = t.n_completed;
        failed = t.n_failed;
        cancelled = t.n_cancelled;
        pending = List.length t.pending;
        running = t.n_running;
      })

let drain t =
  Mutex.protect t.lock (fun () ->
      t.accepting <- false;
      while t.pending <> [] || t.n_running > 0 do
        Condition.wait t.done_cond t.lock
      done)

let shutdown t =
  drain t;
  Mutex.protect t.lock (fun () ->
      t.quit <- true;
      Condition.broadcast t.work_cond);
  Array.iter Domain.join t.workers;
  t.workers <- [||]

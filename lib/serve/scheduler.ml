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
   running job's cancellation token trips at the next stage boundary
   (the flow's guard hook polls it).  Admission is bounded: submit
   rejects with a reason once max_pending jobs are queued, so a
   saturated server fails fast instead of building unbounded backlog.

   Per-job Rc_obs.Metrics deltas are recorded around each run.  They
   are exact when one job runs at a time and approximate under
   concurrency (the registry is process-global) — same caveat as
   Flow_trace's per-stage deltas inside parallel suite arms. *)

type outcome =
  | Done of Rc_util.Json.t
  | Failed of string
  | Cancelled of string

type phase = Queued | Running | Finished of outcome

type job = {
  id : int;
  name : string;
  priority : int;
  token : Cancel.t;
  work : Cancel.t -> Rc_util.Json.t;
  submitted_s : float;  (* monotonic *)
  mutable started_s : float;
  mutable finished_s : float;
  mutable phase : phase;
  mutable metrics : Rc_obs.Metrics.snapshot;  (* delta across the run *)
}

type info = {
  i_id : int;
  i_name : string;
  i_priority : int;
  i_phase : phase;
  i_wait_s : float;  (* submit -> start (or now/finish while queued) *)
  i_run_s : float;  (* start -> finish (0 while queued) *)
  i_metrics : Rc_obs.Metrics.snapshot;
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
  done_cond : Condition.t;  (* broadcast on any job phase change *)
  max_pending : int;
  jobs : (int, job) Hashtbl.t;  (* admitted jobs not yet handed back by await, by id *)
  mutable pending : job list;  (* unordered; workers pick by (priority, id) *)
  mutable next_id : int;
  mutable n_running : int;
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

let finish_locked t job outcome =
  job.finished_s <- Rc_util.Timer.now_s ();
  job.phase <- Finished outcome;
  (match outcome with
  | Done _ ->
      t.n_completed <- t.n_completed + 1;
      Rc_obs.Metrics.incr m_completed
  | Failed _ ->
      t.n_failed <- t.n_failed + 1;
      Rc_obs.Metrics.incr m_failed
  | Cancelled _ ->
      t.n_cancelled <- t.n_cancelled + 1;
      Rc_obs.Metrics.incr m_cancelled);
  Condition.broadcast t.done_cond

(* pick the best queued job: highest priority, then FIFO by id *)
let take_best_locked t =
  match t.pending with
  | [] -> None
  | first :: rest ->
      let best =
        List.fold_left
          (fun best j ->
            if j.priority > best.priority || (j.priority = best.priority && j.id < best.id)
            then j
            else best)
          first rest
      in
      t.pending <- List.filter (fun j -> j.id <> best.id) t.pending;
      Rc_obs.Metrics.set_gauge m_queue_depth (float_of_int (List.length t.pending));
      Some best

let run_job job =
  let before = Rc_obs.Metrics.snapshot () in
  let outcome =
    match Rc_par.Pool.sequential_scope (fun () -> job.work job.token) with
    | v -> Done v
    | exception Cancel.Cancelled reason -> Cancelled reason
    | exception e -> Failed (Printexc.to_string e)
  in
  let after = Rc_obs.Metrics.snapshot () in
  job.metrics <- Rc_obs.Metrics.diff ~before ~after;
  Rc_obs.Metrics.add_time m_job_wall (Rc_util.Timer.now_s () -. job.started_s);
  outcome

let worker t () =
  let live = ref true in
  while !live do
    Mutex.lock t.lock;
    (* sleep until a job is available or the scheduler quits *)
    let rec next () =
      match take_best_locked t with
      | Some job -> Some job
      | None ->
          if t.quit then None
          else begin
            Condition.wait t.work_cond t.lock;
            next ()
          end
    in
    match next () with
    | None ->
        Mutex.unlock t.lock;
        live := false
    | Some job -> (
        (* a job whose token already fired (deadline passed while
           queued, or client cancel) never starts *)
        match Cancel.reason job.token with
        | Some r ->
            finish_locked t job (Cancelled (r ^ " (before start)"));
            Mutex.unlock t.lock
        | None ->
            job.started_s <- Rc_util.Timer.now_s ();
            job.phase <- Running;
            t.n_running <- t.n_running + 1;
            Mutex.unlock t.lock;
            let outcome = run_job job in
            Mutex.lock t.lock;
            t.n_running <- t.n_running - 1;
            finish_locked t job outcome;
            Mutex.unlock t.lock)
  done

let create ?(workers = 2) ?(max_pending = 64) () =
  if workers < 1 then invalid_arg "Scheduler.create: workers must be >= 1";
  if max_pending < 1 then invalid_arg "Scheduler.create: max_pending must be >= 1";
  let t =
    {
      lock = Mutex.create ();
      work_cond = Condition.create ();
      done_cond = Condition.create ();
      max_pending;
      jobs = Hashtbl.create 64;
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

let n_workers t = Array.length t.workers

let submit t ?(priority = 0) ?deadline_s ?(name = "job") work =
  let deadline = Option.map (fun d -> Rc_util.Timer.now_s () +. d) deadline_s in
  Mutex.lock t.lock;
  let result =
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
      let id = t.next_id in
      t.next_id <- id + 1;
      let job =
        {
          id;
          name;
          priority;
          token = Cancel.create ?deadline ();
          work;
          submitted_s = Rc_util.Timer.now_s ();
          started_s = 0.0;
          finished_s = 0.0;
          phase = Queued;
          metrics = [];
        }
      in
      Hashtbl.replace t.jobs id job;
      t.pending <- job :: t.pending;
      t.n_submitted <- t.n_submitted + 1;
      Rc_obs.Metrics.incr m_submitted;
      Rc_obs.Metrics.set_gauge m_queue_depth (float_of_int (List.length t.pending));
      Condition.signal t.work_cond;
      Ok id
    end
  in
  Mutex.unlock t.lock;
  result

let cancel t id ~reason =
  Mutex.lock t.lock;
  let found =
    match Hashtbl.find_opt t.jobs id with
    | None -> false
    | Some job -> (
        Cancel.cancel job.token ~reason;
        match job.phase with
        | Queued -> begin
            (* finish it immediately so waiters unblock without a
               worker having to pick it up first *)
            t.pending <- List.filter (fun j -> j.id <> id) t.pending;
            Rc_obs.Metrics.set_gauge m_queue_depth (float_of_int (List.length t.pending));
            finish_locked t job (Cancelled reason);
            true
          end
        | Running -> true (* token trips at the next stage boundary *)
        | Finished _ -> false)
  in
  Mutex.unlock t.lock;
  found

let info_of_locked job =
  let now = Rc_util.Timer.now_s () in
  let wait_s, run_s =
    match job.phase with
    | Queued -> (now -. job.submitted_s, 0.0)
    | Running -> (job.started_s -. job.submitted_s, now -. job.started_s)
    | Finished _ ->
        (* started_s = 0 marks a job cancelled before it ever ran *)
        if job.started_s = 0.0 then (job.finished_s -. job.submitted_s, 0.0)
        else (job.started_s -. job.submitted_s, job.finished_s -. job.started_s)
  in
  {
    i_id = job.id;
    i_name = job.name;
    i_priority = job.priority;
    i_phase = job.phase;
    i_wait_s = wait_s;
    i_run_s = run_s;
    i_metrics = job.metrics;
  }

let await t id =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.jobs id with
    | None -> None
    | Some job ->
        let rec wait () =
          match job.phase with
          | Finished outcome ->
              (* handed back: forget the job, so its closure and result
                 do not outlive the caller's use of them *)
              Hashtbl.remove t.jobs id;
              (outcome, info_of_locked job)
          | _ ->
              Condition.wait t.done_cond t.lock;
              wait ()
        in
        Some (wait ())
  in
  Mutex.unlock t.lock;
  r

let counts t =
  Mutex.lock t.lock;
  let c =
    {
      submitted = t.n_submitted;
      rejected = t.n_rejected;
      completed = t.n_completed;
      failed = t.n_failed;
      cancelled = t.n_cancelled;
      pending = List.length t.pending;
      running = t.n_running;
    }
  in
  Mutex.unlock t.lock;
  c

let drain t =
  Mutex.lock t.lock;
  t.accepting <- false;
  while t.pending <> [] || t.n_running > 0 do
    Condition.wait t.done_cond t.lock
  done;
  Mutex.unlock t.lock

let shutdown ?(cancel_pending = false) t =
  Mutex.lock t.lock;
  t.accepting <- false;
  if cancel_pending then
    List.iter
      (fun job ->
        Cancel.cancel job.token ~reason:"server shutting down";
        finish_locked t job (Cancelled "server shutting down"))
      t.pending;
  if cancel_pending then t.pending <- [];
  Mutex.unlock t.lock;
  drain t;
  Mutex.lock t.lock;
  t.quit <- true;
  Condition.broadcast t.work_cond;
  Mutex.unlock t.lock;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

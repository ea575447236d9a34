(* Persistent domain pool behind the deterministic parallel primitives.

   Design: one process-wide pool of [min jobs cores - 1] worker domains
   plus the calling domain.  A "region" publishes one job function; every
   participant (workers + caller) runs it, claiming work by index from
   an atomic counter, so chunks never overlap and results land in
   caller-owned slots.  The caller waits until all workers quiesce
   before reading results — the pool mutex provides the happens-before
   edge for every slot written inside the region.

   Batch regions ([region f]) keep the workers captive for the whole
   extent of [f]: nested primitives publish *sub-jobs* through a pair of
   atomics instead of waking the pool through its mutex/condvar, and the
   workers wait on a spin-then-sleep sub-barrier between sub-jobs.  One
   wake per stage instead of one per solve — the claiming discipline is
   unchanged, so results stay bit-identical.

   Determinism holds by construction: parallel bodies only write state
   owned by their index (ordered maps) or their domain (for_with
   scratch), so scheduling cannot change any output bit.

   jobs = 1 (or nesting inside a worker) short-circuits every primitive
   to a plain sequential loop: no pool, no domains, no atomics. *)

let max_jobs = 8
let hard_cap = 64

let env_jobs () =
  match Sys.getenv_opt "ROTARY_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some (min n hard_cap)
      | _ -> None)

let default_jobs () =
  match env_jobs () with
  | Some n -> n
  | None -> max 1 (min (Domain.recommended_domain_count ()) max_jobs)

(* explicit --jobs / set_jobs override; None = resolve from environment *)
let requested = ref None
let jobs_value () = match !requested with Some n -> n | None -> default_jobs ()
let jobs = jobs_value

(* Domains beyond the physical core count cannot add throughput, but
   every one of them joins each stop-the-world minor collection — idle
   blocked domains made allocation-heavy flows an order of magnitude
   slower on a single-core host.  The pool therefore never spawns more
   participants than cores: the requested job count still decides
   sequential vs parallel (and the API contract), while results are
   identical for any participant count because chunks are claimed by
   index from one atomic counter. *)
let cores = Domain.recommended_domain_count ()

(* test hook: ROTARY_POOL_UNCAPPED=1 spawns the full requested job
   count regardless of cores, so the captive-scope machinery can be
   exercised on single-core CI hosts (at the GC cost above) *)
let uncapped () =
  match Sys.getenv_opt "ROTARY_POOL_UNCAPPED" with Some "1" -> true | _ -> false

let effective_jobs () =
  if uncapped () then jobs_value () else max 1 (min (jobs_value ()) cores)

type pool = {
  n : int;  (* participants, including the calling domain *)
  lock : Mutex.t;
  work : Condition.t;  (* signalled when a new region starts (epoch bump) *)
  quiet : Condition.t;  (* signalled when the last worker finishes *)
  mutable epoch : int;
  mutable job : (int -> unit) option;
  mutable running : int;  (* workers still inside the current region *)
  mutable failed : exn option;  (* first exception raised by a worker *)
  mutable stop : bool;
  mutable domains : unit Domain.t array;
}

(* A batch-region scope: the caller owns it for the extent of [region f];
   workers sit in [scope_worker] claiming sub-jobs as they are
   published.  All fields are atomics — the scope never touches the pool
   mutex, which is what makes a sub-job publish cheap. *)
type scope = {
  sc_workers : int;  (* pool.n - 1 *)
  sc_job : (int -> unit) option Atomic.t;
  sc_epoch : int Atomic.t;  (* bumped once per published sub-job *)
  sc_done : int Atomic.t;  (* workers finished with the current sub-job *)
  sc_closing : bool Atomic.t;
  sc_failed : exn option Atomic.t;
}

let in_region_key = Domain.DLS.new_key (fun () -> false)
let in_parallel_region () = Domain.DLS.get in_region_key

(* the scope owned by this domain, when inside [region f] *)
let scope_key : scope option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* true while this domain executes a sub-job body: nested primitives
   must then run sequentially (they are already inside parallel work) *)
let in_subjob_key = Domain.DLS.new_key (fun () -> false)

let current_scope () =
  if Domain.DLS.get in_subjob_key then None else Domain.DLS.get scope_key

(* force every nested primitive to its sequential path for the duration
   of [f] — used by callers that provide their own cross-task
   parallelism (e.g. the serve scheduler's worker domains, where two
   concurrent pool regions would race on the single region slot) *)
let sequential_scope f =
  let saved = Domain.DLS.get in_region_key in
  let saved_scope = Domain.DLS.get scope_key in
  Domain.DLS.set in_region_key true;
  Domain.DLS.set scope_key None;
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set in_region_key saved;
      Domain.DLS.set scope_key saved_scope)
    f

let worker pool id () =
  (* workers only ever execute region bodies: nested primitives must
     run sequentially, so the flag is set for the domain's lifetime *)
  Domain.DLS.set in_region_key true;
  (* metric shards: worker ids are stable and never concurrently reused
     (get_pool joins the previous generation before spawning), so the
     worker id doubles as this domain's shard slot *)
  Rc_obs.Metrics.set_shard_slot id;
  let my_epoch = ref 0 in
  let live = ref true in
  while !live do
    Mutex.lock pool.lock;
    while (not pool.stop) && pool.epoch = !my_epoch do
      Condition.wait pool.work pool.lock
    done;
    if pool.stop then begin
      Mutex.unlock pool.lock;
      live := false
    end
    else begin
      my_epoch := pool.epoch;
      let f = match pool.job with Some f -> f | None -> fun _ -> () in
      Mutex.unlock pool.lock;
      (try f id
       with e ->
         Mutex.lock pool.lock;
         if pool.failed = None then pool.failed <- Some e;
         Mutex.unlock pool.lock);
      Mutex.lock pool.lock;
      pool.running <- pool.running - 1;
      if pool.running = 0 then Condition.broadcast pool.quiet;
      Mutex.unlock pool.lock
    end
  done

(* the process-wide pool; guarded by [pool_lock].  Only the main domain
   creates or destroys it (workers never reach [get_pool]). *)
let the_pool = ref None
let pool_lock = Mutex.create ()

let shutdown_pool p =
  Mutex.lock p.lock;
  p.stop <- true;
  Condition.broadcast p.work;
  Mutex.unlock p.lock;
  Array.iter Domain.join p.domains

let shutdown () =
  Mutex.lock pool_lock;
  let p = !the_pool in
  the_pool := None;
  Mutex.unlock pool_lock;
  Option.iter shutdown_pool p

(* blocked workers would keep the runtime from shutting down *)
let () = at_exit shutdown

let set_jobs n =
  shutdown ();
  requested := Some (max 1 (min n hard_cap))

let create_pool n =
  let pool =
    {
      n;
      lock = Mutex.create ();
      work = Condition.create ();
      quiet = Condition.create ();
      epoch = 0;
      job = None;
      running = 0;
      failed = None;
      stop = false;
      domains = [||];
    }
  in
  pool.domains <- Array.init (n - 1) (fun i -> Domain.spawn (worker pool (i + 1)));
  pool

let get_pool () =
  Mutex.lock pool_lock;
  let p =
    match !the_pool with
    | Some p when p.n = effective_jobs () -> p
    | existing ->
        Option.iter shutdown_pool existing;
        let p = create_pool (effective_jobs ()) in
        the_pool := Some p;
        p
  in
  Mutex.unlock pool_lock;
  p

(* run one region: publish the job, participate as id 0, wait for the
   workers, re-raise the first exception seen *)
let run_region pool (g : int -> unit) =
  Mutex.lock pool.lock;
  pool.job <- Some g;
  pool.failed <- None;
  pool.running <- pool.n - 1;
  pool.epoch <- pool.epoch + 1;
  Condition.broadcast pool.work;
  Mutex.unlock pool.lock;
  let saved = Domain.DLS.get in_region_key in
  Domain.DLS.set in_region_key true;
  let caller_exn = (try g 0; None with e -> Some e) in
  Domain.DLS.set in_region_key saved;
  Mutex.lock pool.lock;
  while pool.running > 0 do
    Condition.wait pool.quiet pool.lock
  done;
  pool.job <- None;
  let worker_exn = pool.failed in
  pool.failed <- None;
  Mutex.unlock pool.lock;
  match (caller_exn, worker_exn) with
  | Some e, _ | None, Some e -> raise e
  | None, None -> ()

(* ---- batch-region scopes --------------------------------------------- *)

(* Sub-barrier wait: spin briefly (the publish gap between two kernels
   of one stage is short), then back off to micro-sleeps so idle workers
   do not steal cycles from the caller's sequential sections on
   oversubscribed machines. *)
let spin_budget = 2000
let nap_s = 5e-5

let scope_worker sc id =
  let my_epoch = ref 0 in
  let spin = ref 0 in
  let live = ref true in
  while !live do
    if Atomic.get sc.sc_closing then live := false
    else begin
      let e = Atomic.get sc.sc_epoch in
      if e <> !my_epoch then begin
        my_epoch := e;
        spin := 0;
        (match Atomic.get sc.sc_job with
        | Some g -> (
            try g id
            with exn -> ignore (Atomic.compare_and_set sc.sc_failed None (Some exn)))
        | None -> ());
        Atomic.incr sc.sc_done
      end
      else if !spin < spin_budget then begin
        Domain.cpu_relax ();
        incr spin
      end
      else Unix.sleepf nap_s
    end
  done

(* publish one sub-job inside a scope: the caller participates as id 0
   (with nested primitives forced sequential), then waits on the
   sub-barrier until every worker has finished the sub-job *)
let scope_run sc (g : int -> unit) =
  Atomic.set sc.sc_failed None;
  Atomic.set sc.sc_done 0;
  Atomic.set sc.sc_job (Some g);
  Atomic.incr sc.sc_epoch;
  Domain.DLS.set in_subjob_key true;
  let caller_exn = (try g 0; None with e -> Some e) in
  Domain.DLS.set in_subjob_key false;
  let spin = ref 0 in
  while Atomic.get sc.sc_done < sc.sc_workers do
    if !spin < spin_budget then begin
      Domain.cpu_relax ();
      incr spin
    end
    else Unix.sleepf nap_s
  done;
  Atomic.set sc.sc_job None;
  match (caller_exn, Atomic.get sc.sc_failed) with
  | Some e, _ | None, Some e -> raise e
  | None, None -> ()

(* ---- primitives ------------------------------------------------------ *)

let sequential () = jobs_value () <= 1 || in_parallel_region ()

(* wall seconds this domain has spent inside primitives that fanned out
   (through a pool region or a scope sub-job); nested primitives run
   sequentially and are never timed twice *)
let fanout_key = Domain.DLS.new_key (fun () -> ref 0.0)
let fanout_wall_s () = !(Domain.DLS.get fanout_key)

let timed_fanout f =
  let t0 = Rc_util.Timer.now_s () in
  Fun.protect
    ~finally:(fun () ->
      let acc = Domain.DLS.get fanout_key in
      acc := !acc +. (Rc_util.Timer.now_s () -. t0))
    f

(* can this call fan work out right now?  Either through the live scope
   (batch region) or by opening a fresh pool region *)
let backend () =
  match current_scope () with
  | Some sc -> `Scope sc
  | None -> if sequential () then `Seq else `Pool

type 'a keepalive = 'a option array

let keepalive () = Array.make hard_cap None

let slab ka init id =
  match ka.(id) with
  | Some s -> s
  | None ->
      let s = init () in
      ka.(id) <- Some s;
      s

(* the chunk-claiming job shared by the pool-region and scope paths:
   participants grab chunk indices from one atomic counter; scratch is
   per participant — from the keepalive when given (reused across calls,
   one slab per participant id), else created lazily per region *)
let claim_job ?reuse ~init ~chunk ~n body =
  let n_chunks = (n + chunk - 1) / chunk in
  let next = Atomic.make 0 in
  fun id ->
    let local = ref None in
    let get_scratch () =
      match reuse with
      | Some ka -> slab ka init id
      | None -> (
          match !local with
          | Some s -> s
          | None ->
              let s = init () in
              local := Some s;
              s)
    in
    let rec claim () =
      let c = Atomic.fetch_and_add next 1 in
      if c < n_chunks then begin
        let s = get_scratch () in
        let lo = c * chunk in
        let hi = min n (lo + chunk) - 1 in
        for i = lo to hi do
          body s i
        done;
        claim ()
      end
    in
    claim ()

let resolve_chunk chunk n participants =
  match chunk with Some c -> max 1 c | None -> max 1 (n / (8 * participants))

let for_with ?chunk ?(min_items = 2) ?reuse ~init n body =
  if n > 0 then begin
    let seq_run () =
      let s = match reuse with Some ka -> slab ka init 0 | None -> init () in
      for i = 0 to n - 1 do
        body s i
      done
    in
    if n < min_items || n = 1 then seq_run ()
    else
      match backend () with
      | `Seq -> seq_run ()
      | `Scope sc ->
          let chunk = resolve_chunk chunk n (sc.sc_workers + 1) in
          timed_fanout (fun () -> scope_run sc (claim_job ?reuse ~init ~chunk ~n body))
      | `Pool ->
          let pool = get_pool () in
          let chunk = resolve_chunk chunk n pool.n in
          timed_fanout (fun () -> run_region pool (claim_job ?reuse ~init ~chunk ~n body))
  end

let for_ ?chunk ?min_items n body =
  for_with ?chunk ?min_items ~init:(fun () -> ()) n (fun () i -> body i)

let unwrap = function Some v -> v | None -> assert false

let parallelizable () = match backend () with `Seq -> false | `Scope _ | `Pool -> true

let map f a =
  let n = Array.length a in
  if n = 0 then [||]
  else if n < 2 || not (parallelizable ()) then Array.map f a
  else begin
    let out = Array.make n None in
    for_ n (fun i -> out.(i) <- Some (f a.(i)));
    Array.map unwrap out
  end

let map_list f l = Array.to_list (map f (Array.of_list l))

let both ?(parallel = true) f g =
  let seq () =
    let a = f () in
    let b = g () in
    (a, b)
  in
  if not parallel then seq ()
  else
    match backend () with
    | `Seq -> seq ()
    | (`Scope _ | `Pool) as be ->
        let ra = ref None and rb = ref None in
        let next = Atomic.make 0 in
        let job _id =
          let rec claim () =
            let t = Atomic.fetch_and_add next 1 in
            if t = 0 then begin
              ra := Some (f ());
              claim ()
            end
            else if t = 1 then rb := Some (g ())
          in
          claim ()
        in
        timed_fanout (fun () ->
            match be with
            | `Scope sc -> scope_run sc job
            | `Pool -> run_region (get_pool ()) job);
        (unwrap !ra, unwrap !rb)

let region f =
  if sequential () then f ()
  else begin
    let pool = get_pool () in
    if pool.n <= 1 then
      (* single participant (jobs=1 or a single-core host): captive
         workers would only preempt the owner — run the region body with
         every sub-job claimed by the caller, nested primitives inline *)
      sequential_scope f
    else begin
      let sc =
        {
          sc_workers = pool.n - 1;
          sc_job = Atomic.make None;
          sc_epoch = Atomic.make 0;
          sc_done = Atomic.make 0;
          sc_closing = Atomic.make false;
          sc_failed = Atomic.make None;
        }
      in
      let result = ref None in
      run_region pool (fun id ->
          if id = 0 then begin
            Domain.DLS.set scope_key (Some sc);
            Fun.protect
              ~finally:(fun () ->
                Domain.DLS.set scope_key None;
                Atomic.set sc.sc_closing true)
              (fun () -> result := Some (f ()))
          end
          else scope_worker sc id);
      unwrap !result
    end
  end

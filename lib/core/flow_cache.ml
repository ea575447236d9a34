(* Mutable cross-iteration recomputation state carried by the flow
   context. The context itself is functional (stages map ctx -> ctx);
   the caches are deliberately not — they are sessions whose whole point
   is to persist across iterations: the incremental STA session, the
   Eq. 1 candidate-tap cache with its replaying assignment solver,
   stage 6's net Laplacian, and the dirty-set tracker fed by stage 6's
   displacement vector.

   Every cache matches on exact inputs, so a flow run with caching
   enabled is bit-identical to one without — the caches only skip
   recomputation of values they can prove unchanged. *)

let m_dirty_cells = Rc_obs.Metrics.counter "flow.dirty.cells"
let m_moved = Rc_obs.Metrics.histogram "flow.dirty.displacement_um"
let g_max_disp = Rc_obs.Metrics.gauge "flow.dirty.max_displacement_um"

type t = {
  mutable sta : Rc_timing.Sta.session option;
  assign : Rc_assign.Assign.cache;
  mutable lap : Rc_place.Qplace.laplacian option;
      (* built on the flow's first stage-6 call; the netlist and die it
         depends on are fixed for the flow's lifetime *)
  epsilon : float;  (* movement threshold for the dirty set, um *)
  mutable dirty_cells : int;  (* cells moved > epsilon in the last stage-6 pass *)
}

let create ?(epsilon = 0.0) () =
  {
    sta = None;
    assign = Rc_assign.Assign.make_cache ();
    lap = None;
    epsilon;
    dirty_cells = 0;
  }

let sta_session t tech netlist =
  match t.sta with
  | Some s -> s
  | None ->
      let s = Rc_timing.Sta.make_session tech netlist in
      t.sta <- Some s;
      s

let assign_cache t = t.assign

let laplacian t netlist ~chip =
  match t.lap with
  | Some lap -> lap
  | None ->
      let lap = Rc_place.Qplace.laplacian netlist ~chip in
      t.lap <- Some lap;
      lap

(* Full invalidation, for edits that change what the caches are keyed
   against implicitly (the STA session embeds the tech, the tap cache
   the ring array): drop the session and the Laplacian and empty the
   assignment cache in place so the next consumers rebuild against the
   new inputs. *)
let reset t =
  t.sta <- None;
  t.lap <- None;
  Rc_assign.Assign.cache_reset t.assign;
  t.dirty_cells <- 0

(* Stage 6 reports its displacement vector here: the dirty set of the
   iteration is every cell that moved more than epsilon. The counts and
   magnitudes surface in the metrics registry; the per-subsystem caches
   detect staleness themselves from exact positions, so an epsilon
   greater than 0 only coarsens the *reported* dirty set, never the
   recomputation. *)
let note_displacement t ~prev ~next =
  let n = min (Array.length prev) (Array.length next) in
  let dirty = ref 0 and max_d = ref 0.0 in
  for c = 0 to n - 1 do
    let d = Rc_geom.Point.manhattan prev.(c) next.(c) in
    if d > t.epsilon then begin
      incr dirty;
      if d > !max_d then max_d := d
    end
  done;
  t.dirty_cells <- !dirty;
  if Rc_obs.Metrics.enabled () then begin
    Rc_obs.Metrics.add m_dirty_cells !dirty;
    Rc_obs.Metrics.observe m_moved (int_of_float (Float.round !max_d));
    Rc_obs.Metrics.set_gauge g_max_disp !max_d
  end

let dirty_cells t = t.dirty_cells

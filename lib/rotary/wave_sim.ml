type config = {
  segments : int;
  l_seg : float;
  c_seg : float;
  r_seg : float;
  gm : float;
  v_swing : float;
  dt : float;
  periods : float;
  seed : int;
}

let default_config =
  (* a 600 um ring: 2400 um per conductor in 64 sections of 37.5 um at
     0.5 pH/um and 0.12 fF/um, low-loss clock metal *)
  {
    segments = 64;
    l_seg = 18.75;
    c_seg = 4.5;
    r_seg = 0.75;
    gm = 5.0;
    v_swing = 0.6;
    dt = 0.05;
    periods = 40.0;
    seed = 7;
  }

type result = {
  period : float;
  predicted_period : float;
  amplitude : float;
  node_phase : float array;
  phase_linearity : float;
  antiphase_error : float;
  locked : bool;
}

(* circular distance between two phases in [0,1) *)
let circ_dist a b =
  let d = Float.rem (Float.abs (a -. b)) 1.0 in
  Float.min d (1.0 -. d)

let simulate cfg =
  if cfg.segments < 8 then invalid_arg "Wave_sim.simulate: need >= 8 segments";
  if cfg.dt <= 0.0 then invalid_arg "Wave_sim.simulate: non-positive dt";
  let n = cfg.segments in
  let m = 2 * n in
  (* SI units *)
  let l = cfg.l_seg *. 1e-12 and c = cfg.c_seg *. 1e-15 and r = cfg.r_seg in
  let dt = cfg.dt *. 1e-12 in
  let gm = cfg.gm *. 1e-3 in
  let predicted_period = 2.0 *. float_of_int n *. sqrt (l *. c) /. 1e-12 in
  let steps =
    int_of_float (Float.ceil (cfg.periods *. predicted_period *. 1e-12 /. dt))
  in
  let rng = Rc_util.Rng.create cfg.seed in
  let v = Array.init m (fun _ -> Rc_util.Rng.gaussian rng ~mean:0.0 ~sigma:0.01) in
  let i = Array.make m 0.0 in
  (* rising-zero-crossing times per node, measured in the last 40% *)
  let crossings = Array.make m [] in
  let warmup = int_of_float (0.6 *. float_of_int steps) in
  let prev = Array.copy v in
  let amplitude = ref 0.0 in
  for step = 0 to steps - 1 do
    let t = float_of_int step *. dt in
    (* inductor update: i[k] flows node k -> k+1 *)
    for k = 0 to m - 1 do
      let k1 = (k + 1) mod m in
      i.(k) <- i.(k) +. (dt /. l *. (v.(k) -. v.(k1))) -. (dt *. r /. l *. i.(k))
    done;
    (* node update: charge from inductors + cross-coupled inverters *)
    Array.blit v 0 prev 0 m;
    for k = 0 to m - 1 do
      let km1 = (k + m - 1) mod m in
      (* the inverter pair couples physical position k on conductor A
         (node k) with the same position on conductor B (node k+n) *)
      let partner = (k + n) mod m in
      let inj = -.gm *. Float.tanh (prev.(partner) /. cfg.v_swing) in
      (* mild output conductance keeps amplitudes bounded *)
      let leak = -.(gm /. 8.0) *. prev.(k) /. cfg.v_swing in
      v.(k) <- v.(k) +. (dt /. c *. (i.(km1) -. i.(k) +. ((inj +. leak) *. cfg.v_swing)))
    done;
    if step > warmup then begin
      amplitude := Float.max !amplitude (Float.abs v.(0));
      for k = 0 to m - 1 do
        if prev.(k) <= 0.0 && v.(k) > 0.0 then begin
          (* linear interpolation of the crossing instant *)
          let frac = -.prev.(k) /. (v.(k) -. prev.(k)) in
          crossings.(k) <- (t +. (frac *. dt)) :: crossings.(k)
        end
      done
    end
  done;
  let node0 = Array.of_list (List.rev crossings.(0)) in
  if Array.length node0 < 4 then
    {
      period = nan;
      predicted_period;
      amplitude = !amplitude;
      node_phase = Array.make n nan;
      phase_linearity = nan;
      antiphase_error = nan;
      locked = false;
    }
  else begin
    let diffs =
      Array.init (Array.length node0 - 1) (fun k -> (node0.(k + 1) -. node0.(k)) /. 1e-12)
    in
    let period = Rc_util.Stats.mean diffs in
    let stable = Rc_util.Stats.stddev diffs < 0.02 *. period in
    (* phase of each node: first crossing after a mid-window reference
       crossing of node 0 *)
    let t_ref = node0.(Array.length node0 / 2) in
    let phase_of k =
      let after =
        List.fold_left
          (fun acc t -> if t >= t_ref && t < acc then t else acc)
          infinity crossings.(k)
      in
      if after = infinity then nan
      else Float.rem ((after -. t_ref) /. 1e-12 /. period) 1.0
    in
    let all_phases = Array.init m phase_of in
    let node_phase = Array.sub all_phases 0 n in
    (* the wave may travel in either direction *)
    let linearity dir =
      let worst = ref 0.0 in
      for k = 0 to m - 1 do
        let ideal =
          if dir then float_of_int k /. float_of_int m
          else Float.rem (float_of_int (m - k) /. float_of_int m) 1.0
        in
        if not (Float.is_nan all_phases.(k)) then
          worst := Float.max !worst (circ_dist all_phases.(k) ideal)
      done;
      !worst
    in
    let phase_linearity = Float.min (linearity true) (linearity false) in
    let antiphase_error =
      let worst = ref 0.0 in
      for k = 0 to n - 1 do
        let a = all_phases.(k) and b = all_phases.((k + n) mod m) in
        if not (Float.is_nan a || Float.is_nan b) then
          worst := Float.max !worst (Float.abs (circ_dist a b -. 0.5))
      done;
      !worst
    in
    {
      period;
      predicted_period;
      amplitude = !amplitude;
      node_phase;
      phase_linearity;
      antiphase_error;
      locked = stable && !amplitude > 0.1 *. cfg.v_swing;
    }
  end

type coupled_result = {
  uncoupled_mismatch : float;
  coupled_mismatch : float;
  locked_together : bool;
}

(* measured period of ring [which] (0 or 1) from a joint two-ring
   integration; [coupling_g] = 0 disconnects the bridges *)
let measure_two_rings cfg ~mistune ~coupling_g =
  let n = cfg.segments in
  let m = 2 * n in
  let l1 = cfg.l_seg *. 1e-12 in
  let l2 = l1 *. (1.0 +. mistune) in
  let c = cfg.c_seg *. 1e-15 and r = cfg.r_seg in
  let dt = cfg.dt *. 1e-12 in
  let gm = cfg.gm *. 1e-3 in
  let nominal = 2.0 *. float_of_int n *. sqrt (l1 *. c) /. 1e-12 in
  let steps = int_of_float (Float.ceil (cfg.periods *. nominal *. 1e-12 /. dt)) in
  let rng = Rc_util.Rng.create cfg.seed in
  let v = Array.init 2 (fun _ -> Array.init m (fun _ -> Rc_util.Rng.gaussian rng ~mean:0.0 ~sigma:0.01)) in
  let i = Array.init 2 (fun _ -> Array.make m 0.0) in
  let prev = Array.init 2 (fun _ -> Array.make m 0.0) in
  (* 8 bridges between facing nodes of the two rings *)
  let bridges = List.init 8 (fun k -> k * m / 8) in
  let crossings = [| []; [] |] in
  let warmup = int_of_float (0.6 *. float_of_int steps) in
  for step = 0 to steps - 1 do
    let t = float_of_int step *. dt in
    Array.iteri
      (fun ring iv ->
        let l = if ring = 0 then l1 else l2 in
        for k = 0 to m - 1 do
          let k1 = (k + 1) mod m in
          iv.(k) <- iv.(k) +. (dt /. l *. (v.(ring).(k) -. v.(ring).(k1))) -. (dt *. r /. l *. iv.(k))
        done)
      i;
    Array.iteri (fun ring vr -> Array.blit vr 0 prev.(ring) 0 m) v;
    for ring = 0 to 1 do
      for k = 0 to m - 1 do
        let km1 = (k + m - 1) mod m in
        let partner = (k + n) mod m in
        let inj = -.gm *. Float.tanh (prev.(ring).(partner) /. cfg.v_swing) in
        let leak = -.(gm /. 8.0) *. prev.(ring).(k) /. cfg.v_swing in
        let couple =
          if coupling_g > 0.0 && List.mem k bridges then
            coupling_g *. (prev.(1 - ring).(k) -. prev.(ring).(k))
          else 0.0
        in
        v.(ring).(k) <-
          v.(ring).(k)
          +. (dt /. c *. (i.(ring).(km1) -. i.(ring).(k) +. ((inj +. leak) *. cfg.v_swing) +. couple))
      done
    done;
    if step > warmup then
      for ring = 0 to 1 do
        if prev.(ring).(0) <= 0.0 && v.(ring).(0) > 0.0 then begin
          let frac = -.prev.(ring).(0) /. (v.(ring).(0) -. prev.(ring).(0)) in
          crossings.(ring) <- (t +. (frac *. dt)) :: crossings.(ring)
        end
      done
  done;
  let period_of ring =
    let ts = Array.of_list (List.rev crossings.(ring)) in
    if Array.length ts < 4 then nan
    else
      Rc_util.Stats.mean
        (Array.init (Array.length ts - 1) (fun k -> (ts.(k + 1) -. ts.(k)) /. 1e-12))
  in
  (period_of 0, period_of 1)

(* the second ring's inductance is scaled by 1 + mistune *)
let mistune = 0.04

let simulate_coupled ?(coupling_r = 40.0) cfg =
  if cfg.segments < 8 then invalid_arg "Wave_sim.simulate_coupled: need >= 8 segments";
  if coupling_r <= 0.0 then invalid_arg "Wave_sim.simulate_coupled: non-positive coupling";
  let t1u, t2u = measure_two_rings cfg ~mistune ~coupling_g:0.0 in
  let t1c, t2c = measure_two_rings cfg ~mistune ~coupling_g:(1.0 /. coupling_r) in
  let mismatch a b =
    if Float.is_nan a || Float.is_nan b then nan else Float.abs (a -. b) /. a
  in
  let uncoupled_mismatch = mismatch t1u t2u in
  let coupled_mismatch = mismatch t1c t2c in
  {
    uncoupled_mismatch;
    coupled_mismatch;
    locked_together =
      (not (Float.is_nan coupled_mismatch))
      && (not (Float.is_nan uncoupled_mismatch))
      && coupled_mismatch < 0.2 *. uncoupled_mismatch;
  }

(* The layered benchmark: one workload per process.

     perfbench.exe --workload paper_flow|scale_100k|serve_mixed
                   --seed N --seconds S --trace 0|1
                   [--cli PATH --run-dir DIR]   (serve_mixed)

   Run from the root of the checkout: the metric names and units come
   from BENCHMARK.json there.  With --trace 0 it prints the end-to-end
   metrics, with --trace 1 the per-layer ones (every name on every
   workload; a layer a workload does not exercise reads 0).  The last
   stdout line is the JSON result that run.py passes on; see README.md
   beside this file. *)

module M = Measure
module Json = Rc_util.Json

(* [(name, unit)] of one metric list of BENCHMARK.json. *)
let metric_spec key =
  let doc = In_channel.with_open_text "BENCHMARK.json" In_channel.input_all in
  let field k j = Option.bind (Json.member k j) Json.to_string_opt in
  match Result.map (fun j -> Option.bind (Json.member key j) Json.to_list_opt) (Json.of_string doc) with
  | Ok (Some metrics) ->
      List.filter_map
        (fun m -> match (field "name" m, field "unit" m) with Some n, Some u -> Some (n, u) | _ -> None)
        metrics
  | _ -> failwith ("BENCHMARK.json: no " ^ key ^ " list")

let () =
  let workload = ref "" and seed = ref Flow_bench.default_seed and seconds = ref 10.0 in
  let trace = ref 0 and cli = ref "" and run_dir = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME paper_flow | scale_100k | serve_mixed");
      ("--seed", Arg.Set_int seed, "N workload seed (1 = the Bench_suite circuits)");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
      ("--cli", Arg.Set_string cli, "PATH rotary_cli executable (serve_mixed)");
      ("--run-dir", Arg.Set_string run_dir, "DIR scratch directory for the server's files (serve_mixed)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench.exe --workload NAME";
  let trace = !trace = 1 in
  let metrics = metric_spec (if trace then "per_layer" else "end_to_end") in
  let flow w =
    if trace then Flow_bench.traced w ~seed:!seed
    else Flow_bench.timed w ~seed:!seed ~seconds:!seconds
  in
  let tally, values =
    match !workload with
    | "paper_flow" -> flow Flow_bench.Paper_flow
    | "scale_100k" -> flow Flow_bench.Scale_100k
    | "serve_mixed" when !cli <> "" && !run_dir <> "" ->
        Serve_bench.run ~cli:!cli ~dir:!run_dir ~seed:!seed ~seconds:!seconds ~trace
    | w ->
        Printf.eprintf "perfbench: unknown workload %S or missing --cli/--run-dir\n" w;
        exit 2
  in
  let rows =
    List.map
      (fun (name, unit_) -> (name, unit_, Option.value (List.assoc_opt name values) ~default:0.0))
      metrics
  in
  M.print_table
    (Printf.sprintf "%s seed %d (%s)" !workload !seed (if trace then "per-layer, traced" else "end-to-end"))
    rows;
  M.print_result tally rows

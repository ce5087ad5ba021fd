(* paper-panel: the Table 1 sweep as [gripps_cli table 1 --jobs 1] runs
   it — Tables.sweep over the 162-configuration paper grid with the
   eleven-scheduler paper panel, then Tables.all_tables and Render.table —
   at a reduced horizon (3 s) and eight instances per configuration, the
   instances of [gripps_cli table 1 --horizon 3 --instances 8 --jobs 1].
   The sweep runs one instance index (a group) at a time, so each group
   is timed as a round of its own.  The solvers of Offline, the on-line
   LP heuristics and Bender98 do almost all the work; the kernel almost
   none. *)

open Gripps_model
open Gripps_engine
module W = Gripps_workload
module E = Gripps_experiments
module Obs = Gripps_obs.Obs
module S = Gripps_core.Stretch_solver

type params = {
  horizon : float;
  configs : W.Config.t list;
  groups : int;  (* instances per configuration, swept one group each *)
  lp_checks : int;  (* instances confirmed with the System (1) LP *)
}

let params = function
  | Bench.Full ->
    { horizon = 3.0; configs = W.Config.paper_grid ~horizon:3.0 (); groups = 8; lp_checks = 8 }
  | Bench.Tiny ->
    (* every 27th configuration of a short grid: six, two per platform size *)
    let grid = W.Config.paper_grid ~horizon:4.0 () in
    { horizon = 4.0; configs = List.filteri (fun i _ -> i mod 27 = 0) grid; groups = 2;
      lp_checks = 2 }

(* Instance [k] of configuration [i], as the sweep draws it: Tables.sweep seeds
   configuration [i] with [seed + 7919 i] and Runner.instance_job its
   instance [k] with [seed_i + 1_000_003 k].  The three generation steps
   are timed apart; Generator.instance retries platform and jobs with the
   same stream when a draw has no job, and so does this. *)
type gen_times = { mutable platform_s : float; mutable jobs_s : float; mutable make_s : float }

let instance_of ?times ~seed i k config =
  let rng = Gripps_rng.Splitmix.create (seed + (7919 * i) + (1_000_003 * k)) in
  let timed f acc =
    match times with
    | None -> f ()
    | Some t ->
      let w, r = Bench.time f in
      acc t w;
      r
  in
  let rec draw () =
    let r = timed (fun () -> W.Generator.platform rng config)
        (fun t w -> t.platform_s <- t.platform_s +. w) in
    match timed (fun () -> W.Generator.jobs rng config r)
            (fun t w -> t.jobs_s <- t.jobs_s +. w) with
    | [] -> draw ()
    | js ->
      timed (fun () -> Instance.make ~platform:r.W.Generator.platform ~jobs:js)
        (fun t w -> t.make_s <- t.make_s +. w)
  in
  draw ()

(* The grid, group-major: [grid.(k)] holds instance [k] of every
   configuration, in configuration order. *)
let setup ?times ~seed p =
  Array.init p.groups (fun k ->
      Array.of_list (List.mapi (fun i c -> (c, instance_of ?times ~seed i k c)) p.configs))

(* Runner.run_instance skips Bender98 on more than 3 sites or 60 jobs, as
   the paper did; the count of planned runs mirrors that rule. *)
let planned_runs grid =
  let panel = E.Sched_registry.paper_panel in
  Array.fold_left
    (fun acc ((c : W.Config.t), inst) ->
      acc
      + List.length
          (List.filter
             (fun (e : E.Sched_registry.entry) ->
               not
                 (e.E.Sched_registry.name = "Bender98"
                  && (c.W.Config.sites > 3 || Instance.num_jobs inst > 60)))
             panel))
    0 grid

(* One group: instance [k] of every configuration, swept as
   [Tables.sweep ~instances_per_config:1] with the seed shifted by [k]
   instance strides — exactly the instances [k] of a sweep with [groups]
   instances per configuration. *)
let group_sweep ~seed p k =
  E.Tables.sweep ~seed:(seed + (1_000_003 * k)) ~instances_per_config:1 ~configs:p.configs
    ~horizon:p.horizon ()

(* Table 1 over every group's results, rendered. *)
let aggregate results = E.Render.table (List.assoc 1 (E.Tables.all_tables results))

type pass = { results : E.Runner.instance_result list; table : string }

let counter name = Option.value ~default:0 (Obs.counter_value name)

(* ---- checks ------------------------------------------------------------- *)

(* Offline's result against the exact optimum, every schedule against the
   model, and (on small instances) the optimum against the LP.  Returns
   the per-instance solve times of the optimum, in seconds. *)
let check_pass tally ~p grid pass =
  let results = Array.of_list pass.results in
  Bench.check tally (Array.length results = Array.length grid)
    "sweep returned %d instances for %d configurations" (Array.length results)
    (Array.length grid);
  Bench.check tally (String.length pass.table > 0) "Table 1 rendered empty";
  let solve_s = Array.make (Array.length grid) 0.0 in
  let lp_left = ref p.lp_checks in
  Array.iteri
    (fun i ((_ : W.Config.t), inst) ->
      if i < Array.length results then begin
        let r = results.(i) in
        Bench.check tally (r.E.Runner.num_jobs = Instance.num_jobs inst)
          "instance %d: sweep ran %d jobs, regenerated %d" i r.E.Runner.num_jobs
          (Instance.num_jobs inst);
        let w, s_star =
          Bench.time (fun () ->
              S.optimal_max_stretch (Gripps_core.Snapshot.of_instance inst).Gripps_core.Snapshot.problem)
        in
        solve_s.(i) <- w;
        let opt = Check.Q.to_float s_star in
        let slack = Check.sliver_stretch_slack inst in
        List.iter
          (fun (m : E.Runner.measurement) ->
            let name = m.E.Runner.scheduler in
            Bench.check tally (m.E.Runner.max_stretch >= (opt *. (1.0 -. 1e-9)) -. slack)
              "instance %d: %s max-stretch %.17g beats the optimum %.17g" i name
              m.E.Runner.max_stretch opt;
            if name = "Offline" then
              Bench.check tally (m.E.Runner.max_stretch <= opt *. (1.0 +. 1e-9))
                "instance %d: Offline max-stretch %.17g is above the optimum %.17g" i
                m.E.Runner.max_stretch opt;
            match E.Sched_registry.find_scheduler name with
            | None -> Bench.fail tally "instance %d: unknown scheduler %s" i name
            | Some s ->
              (match Sim.run_report_flat ~horizon:1e9 ~record:true s inst with
               | exception e ->
                 Bench.fail tally "instance %d: %s re-run raised %s" i name
                   (Printexc.to_string e)
               | rep ->
                 (match Check.schedule inst rep.Sim.schedule with
                  | Error e -> Bench.fail tally "instance %d: %s schedule: %s" i name e
                  | Ok completion ->
                    let mx, sum = Check.stretches inst completion in
                    Bench.check tally
                      (Check.rel_close ~tol:1e-9 mx m.E.Runner.max_stretch
                       && Check.rel_close ~tol:1e-9 sum m.E.Runner.sum_stretch)
                      "instance %d: %s reported (%.17g, %.17g), schedule gives (%.17g, %.17g)"
                      i name m.E.Runner.max_stretch m.E.Runner.sum_stretch mx sum)))
          r.E.Runner.measurements;
        let machines = Platform.num_machines (Instance.platform inst) in
        if !lp_left > 0 && Instance.num_jobs inst <= 6 && machines <= 3 then begin
          decr lp_left;
          let below = Check.Q.mul s_star (Check.Q.of_ints 1048575 1048576) in
          Bench.check tally (Check.system1_feasible inst ~stretch:s_star)
            "instance %d: System (1) LP infeasible at the optimum %s" i
            (Check.Q.to_string s_star);
          Bench.check tally (not (Check.system1_feasible inst ~stretch:below))
            "instance %d: System (1) LP feasible below the optimum %s" i
            (Check.Q.to_string s_star)
        end
      end)
    grid;
  Bench.check tally (!lp_left = 0) "only %d of %d LP confirmations found a small instance"
    (p.lp_checks - !lp_left) p.lp_checks;
  solve_s

(* ---- the workload ------------------------------------------------------- *)

let run ~size ~seed ~seconds ~trace =
  let p = params size in
  let tally = Bench.tally () in
  let setup_s, grid =
    Bench.setup_time ~samples:(if trace then 1 else 25) (fun () -> setup ~seed p)
  in
  let planned = Array.map planned_runs grid in
  (* One group: count its runs; a sweep that raises fails all of them. *)
  let attempt k =
    tally.Bench.attempted <- tally.Bench.attempted + planned.(k);
    match group_sweep ~seed p k with
    | results ->
      let ran = List.fold_left (fun acc r -> acc + List.length r.E.Runner.measurements) 0 results in
      Bench.check tally (ran = planned.(k)) "group %d ran %d scheduler runs, %d planned" k ran
        planned.(k);
      results
    | exception e ->
      tally.Bench.failed <- tally.Bench.failed + planned.(k);
      Bench.fail tally "group %d: the sweep raised %s" k (Printexc.to_string e);
      []
  in
  (* A pass is one round per group, then one round aggregating the
     pass's results into Table 1: [p.groups + 1] rounds. *)
  let slots = p.groups + 1 in
  let first = ref None and rounds_note = ref "" and events = ref 0 in
  let cycle = ref [] in
  let round r =
    let k = r mod slots in
    if k < p.groups then begin
      let e0 = counter "sim.events" in
      let w, results = Bench.time (fun () -> attempt k) in
      if r < slots then events := !events + (counter "sim.events" - e0);
      cycle := !cycle @ results;
      w
    end
    else begin
      let w, table = Bench.time (fun () -> aggregate !cycle) in
      if r < slots then first := Some { results = !cycle; table };
      cycle := [];
      w
    end
  in
  let metrics =
    if not trace then begin
      let walls = Bench.rounds ~seconds ~min_rounds:(2 * slots) ~cycle:slots round in
      rounds_note := Bench.summary walls;
      let wall_s = Bench.typical ~cycle:slots walls in
      [ ("setup_s", setup_s); ("wall_s", wall_s);
        ("events_per_s", float_of_int !events /. wall_s) ]
    end
    else begin
      let times = { platform_s = 0.0; jobs_s = 0.0; make_s = 0.0 } in
      ignore (setup ~times ~seed p);
      let pass () =
        Gc.full_major ();
        Bench.time (fun () -> for r = 0 to slots - 1 do ignore (round r) done)
      in
      let plain_s, () = pass () in
      events := 0;
      let span name = Obs.Span.total name in
      let names = [ "sim.events"; "sim.replans"; "sim.minor_words"; "online.replans" ] in
      let c0 = List.map counter names in
      let x0 = span "solver.exact" and f0 = span "solver.float" and o0 = span "online.replan" in
      let round_s, () = pass () in
      let d = List.map2 (fun n c -> (n, counter n - c)) names c0 in
      let ev = List.assoc "sim.events" d in
      let results = match !first with Some pass -> pass.results | None -> [] in
      let by_kind kind =
        List.fold_left
          (fun acc r ->
            List.fold_left
              (fun acc (m : E.Runner.measurement) ->
                match E.Sched_registry.find m.E.Runner.scheduler with
                | Some e when e.E.Sched_registry.kind = kind -> acc +. m.E.Runner.wall_time
                | _ -> acc)
              acc r.E.Runner.measurements)
          0.0 results
      in
      let solver f =
        List.fold_left
          (fun acc r ->
            List.fold_left (fun acc (m : E.Runner.measurement) -> acc + f m.E.Runner.solver)
              acc r.E.Runner.measurements)
          0 results
      in
      let aggregate_s, _ = Bench.time (fun () -> aggregate results) in
      let hits = solver (fun s -> s.S.rat_fast_hits) and falls = solver (fun s -> s.S.rat_fast_falls) in
      [ ("engine.peak_heap_mb", Bench.peak_heap_mb ());
        ("trace.round_s", round_s); ("trace.plain_round_s", plain_s);
        ("trace.overhead_ratio", round_s /. plain_s);
        ("workload.generate_s", times.platform_s); ("workload.jobs_s", times.jobs_s);
        ("model.instance_make_s", times.make_s);
        ("engine.events", float_of_int ev);
        ("engine.replans", float_of_int (List.assoc "sim.replans" d));
        ("engine.minor_words_per_event",
         float_of_int (List.assoc "sim.minor_words" d) /. float_of_int (max ev 1));
        ("engine.run_offline_s", by_kind E.Sched_registry.Offline);
        ("engine.run_online_s", by_kind E.Sched_registry.Online);
        ("engine.run_heuristic_s", by_kind E.Sched_registry.Heuristic);
        ("core.solver_exact_s", span "solver.exact" -. x0);
        ("core.solver_float_s", span "solver.float" -. f0);
        ("core.online_replan_s", span "online.replan" -. o0);
        ("core.online_replans", float_of_int (List.assoc "online.replans" d));
        ("core.exact_probes", float_of_int (solver (fun s -> s.S.exact_probes)));
        ("core.float_probes", float_of_int (solver (fun s -> s.S.float_probes)));
        ("core.graph_builds", float_of_int (solver (fun s -> s.S.graph_builds)));
        ("core.warm_updates", float_of_int (solver (fun s -> s.S.warm_updates)));
        ("flow.augmenting_paths", float_of_int (solver (fun s -> s.S.augmenting_paths)));
        ("numeric.rat_fast_hits", float_of_int hits);
        ("numeric.rat_fast_falls", float_of_int falls);
        ("numeric.rat_fast_ratio",
         if hits + falls = 0 then 0.0 else float_of_int hits /. float_of_int (hits + falls));
        ("experiments.aggregate_s", aggregate_s) ]
    end
  in
  let flat = Array.concat (Array.to_list grid) in
  let solve_ms =
    match !first with
    | None -> [||]
    | Some pass -> Array.map (fun s -> s *. 1e3) (check_pass tally ~p flat pass)
  in
  let metrics =
    if trace && solve_ms <> [||] then
      metrics
      @ [ ("core.offline_solve_ms_p50", Bench.median solve_ms);
          ("core.offline_solve_ms_p90", Bench.quantile solve_ms 0.9) ]
    else metrics
  in
  Bench.outcome tally ~metrics
    ~details:
      [ ("configurations x instances",
         Printf.sprintf "%d x %d" (List.length p.configs) p.groups);
        ("horizon", Printf.sprintf "%g" p.horizon);
        ("jobs", string_of_int (Array.fold_left (fun a (_, i) -> a + Instance.num_jobs i) 0 flat));
        ("scheduler runs per pass", string_of_int (Array.fold_left ( + ) 0 planned));
        ("engine events per pass", string_of_int !events);
        ("timed", !rounds_note) ]

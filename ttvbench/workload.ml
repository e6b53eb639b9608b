(* The benchmark's workloads: fixed sets of (instance, engine) solves,
   each under an AppVer-call budget and pinned to one domain, so the
   verdicts, calls and nodes repeat exactly and only the timings vary.
   Why each workload exists is in ttvbench/README.md.

   The instance population of a workload is fixed (models trained with
   seed 7, ACAS networks 0-5); the workload seed only sets the order in
   which ttv.ml runs the solves.  A seed that changed the population
   would move every quantile with the population, not with the code. *)

module Budget = Abonn_util.Budget
module Obs = Abonn_obs.Obs
module Sink = Abonn_obs.Sink
module Metrics = Abonn_obs.Metrics
module Problem = Abonn_spec.Problem
module Verdict = Abonn_spec.Verdict
module Vnnlib = Abonn_spec.Vnnlib
module Appver = Abonn_prop.Appver
module Branching = Abonn_bab.Branching
module Result = Abonn_bab.Result
module Attack = Abonn_attack.Attack
module Models = Abonn_data.Models
module Instances = Abonn_data.Instances
module Acas = Abonn_data.Acas
module Config = Abonn_core.Config

type engine = Bfs | Ab_crown | Abonn | Inputsplit

let engine_name = function
  | Bfs -> "bab-baseline"
  | Ab_crown -> "ab-crown"
  | Abonn -> "abonn"
  | Inputsplit -> "inputsplit"

type instance = { id : string; problem : Problem.t }

type t = {
  name : string;
  solves : (instance * engine) list;
  calls : int;  (** AppVer-call budget of every solve *)
}

(* Set-up split into the three layers it crosses. *)
type setup_times = {
  train_s : float;  (** lib/data + lib/nn: model training *)
  generate_s : float;  (** instance generation and serialisation *)
  parse_s : float;  (** lib/nn ONNX + lib/spec VNNLIB ingestion *)
}

let names = [ "rq1"; "acas_inputsplit"; "mnist_l4_exact" ]

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* [(spec, [(count, bands); ...])]: one trained model per spec, then
   instances of each band mix. *)
let generated specs =
  let trained, train_s =
    timed (fun () -> List.map (fun (spec, mixes) -> (Models.train spec, mixes)) specs)
  in
  let instances, generate_s =
    timed (fun () ->
        List.concat_map
          (fun (tr, mixes) ->
            List.concat_map
              (fun (count, bands) ->
                List.map
                  (fun (i : Instances.t) -> { id = i.id; problem = i.problem })
                  (Instances.generate ~count ~bands tr))
              mixes)
          trained)
  in
  (instances, { train_s; generate_s; parse_s = 0.0 })

(* The ACAS family of [Instances.acas] (properties cycling P1-P4 over
   successive network seeds), sent through the ONNX and VNNLIB writers
   and read back, so the solves see only what ingestion produced. *)
let acas_ingested ~count =
  let files, generate_s =
    timed (fun () ->
        List.init count (fun i ->
            let pid = List.nth Acas.property_ids (i mod List.length Acas.property_ids) in
            let s = i / List.length Acas.property_ids in
            let network = Acas.network ~seed:s () in
            let spec = Acas.spec ~network ~seed:s pid in
            ( Printf.sprintf "acas_%d/%s" s (Acas.property_name pid),
              Abonn_nn.Onnx.to_bytes network,
              Vnnlib.to_string spec )))
  in
  let instances, parse_s =
    timed (fun () ->
        List.map
          (fun (id, onnx, vnnlib) ->
            let network = Abonn_nn.Onnx.of_bytes ~source:id onnx in
            let spec = Vnnlib.parse ~source:id vnnlib in
            match Vnnlib.problems ~name:id ~network spec with
            | [ problem ] -> { id; problem }
            | ps ->
              failwith
                (Printf.sprintf "%s: expected one disjunct, got %d" id (List.length ps)))
          files)
  in
  (instances, { train_s = 0.0; generate_s; parse_s })

let easy = Instances.[ Between 0.15; Above_attack 1.01 ]

let cross instances engines =
  List.concat_map (fun i -> List.map (fun e -> (i, e)) engines) instances

let setup name =
  let solves, calls, times =
    match name with
    | "rq1" ->
      let instances, times =
        generated
          [ (Models.mnist_l2, [ (12, easy @ [ Instances.Between 0.35 ]) ]);
            (Models.cifar_base, [ (6, easy) ]) ]
      in
      (cross instances [ Bfs; Ab_crown; Abonn ], 200, times)
    | "acas_inputsplit" ->
      let instances, times = acas_ingested ~count:24 in
      (cross instances [ Inputsplit; Abonn; Bfs ], 30, times)
    | "mnist_l4_exact" ->
      (* the fourth default-band instance, 03#b0.85, reaches fully-stabilised
         leaves whose exact resolution falls back to the triangle LP: one
         fallback, about 6 s, under ABONN (ab-crown hits another).  The easy
         mix adds the decided solves the verdict quantiles need. *)
      let instances, times =
        generated [ (Models.mnist_l4, [ (4, Instances.default_bands); (16, easy) ]) ]
      in
      let lp = List.filteri (fun k _ -> k = 3) instances in
      let easy_ones = List.filteri (fun k _ -> k >= 4) instances in
      (cross lp [ Abonn ] @ cross easy_ones [ Bfs; Ab_crown; Abonn ], 100, times)
    | other -> invalid_arg ("unknown workload " ^ other)
  in
  ({ name; solves; calls }, times)

(* One solve's observable output. *)
type outcome = {
  verdict : Verdict.t;
  calls : int;
  nodes : int;
  wall : float;
  minor_words : float;
  major_collections : int;
}

let verify ?probe engine ~calls problem =
  let budget = Budget.of_calls calls in
  let wrap_appver v = match probe with Some p -> Probe.appver p v | None -> v in
  let wrap_heuristic h = match probe with Some p -> Probe.heuristic p h | None -> h in
  match engine with
  | Bfs ->
    Abonn_bab.Bfs.verify ~appver:(wrap_appver Appver.deeppoly)
      ~heuristic:(wrap_heuristic Branching.default) ~budget ~domains:1 problem
  | Ab_crown ->
    let attack =
      match probe with Some p -> Probe.attack p Attack.best_effort | None -> Attack.best_effort
    in
    Abonn_crown.Alphabeta.verify ~attack ~heuristic:(wrap_heuristic Branching.fsb) ~budget
      ~domains:1 problem
  | Abonn ->
    let config =
      Config.make ~appver:(wrap_appver Appver.deeppoly)
        ~heuristic:(wrap_heuristic Branching.default) ()
    in
    Abonn_core.Abonn.verify ~config ~budget ~domains:1 problem
  | Inputsplit ->
    Abonn_bab.Inputsplit.verify ~appver:(wrap_appver Appver.deeppoly) ~budget ~domains:1
      problem

let solve ?probe engine ~calls problem =
  let gc0 = Gc.quick_stat () in
  let (r : Result.t), wall = timed (fun () -> verify ?probe engine ~calls problem) in
  let gc1 = Gc.quick_stat () in
  { verdict = r.verdict;
    calls = r.stats.appver_calls;
    nodes = r.stats.nodes;
    wall;
    minor_words = gc1.minor_words -. gc0.minor_words;
    major_collections = gc1.major_collections - gc0.major_collections }

(* Layer figures of one traced solve. *)
type layers = {
  probe : Probe.t;
  lp_solves : int;
  lp_busy : float;
  exact_leaves : int;
  self_s : float;  (** solve time minus every layer timed above it *)
}

let counter (snap : Metrics.snapshot) name =
  Option.value ~default:0 (List.assoc_opt name snap.counters)

(* A solve with the wrappers in place and lib/obs metrics on.  The
   αβ-CROWN baseline additionally gets an event sink for its DeepPoly
   calls, which it takes no parameter for. *)
let solve_traced engine ~calls problem =
  let probe = Probe.create () in
  Metrics.reset ();
  Metrics.set_enabled true;
  let run () = solve ~probe engine ~calls problem in
  let outcome =
    Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
    match engine with
    | Ab_crown -> Obs.with_sink (Sink.callback (Probe.on_event probe)) run
    | Bfs | Abonn | Inputsplit -> run ()
  in
  let snap = Metrics.snapshot () in
  let lp_busy =
    match List.assoc_opt "lp.solve" snap.spans with Some s -> s.total | None -> 0.0
  in
  let exact_leaves =
    List.fold_left (fun acc e -> acc + counter snap (e ^ ".exact")) 0
      [ "bfs"; "bestfirst"; "abonn" ]
  in
  ( outcome,
    { probe;
      lp_solves = counter snap "lp.solves";
      lp_busy;
      exact_leaves;
      self_s = outcome.wall -. Probe.busy probe -. lp_busy } )

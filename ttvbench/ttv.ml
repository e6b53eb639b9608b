(* Time-to-verdict benchmark: one workload, one seed, in this process.

     ttv.exe --workload rq1 --seed 1 --seconds 30 --trace 0

   Sets the workload up, then repeats its fixed set of solves, each pass
   in a fresh order drawn from [--seed], until [--seconds] of solving
   have passed; more set-ups run between the passes.  With [--trace 0] it reports the end-to-end
   metrics (each solve timed by its fastest repeat); with [--trace 1]
   it alternates an untraced pass with a traced one (layer wrappers and
   lib/obs metrics on) and reports the per-layer metrics.  Every solve
   is checked (witnesses validate, engines agree, passes repeat), and
   the last stdout line is one JSON object that ttvbench/run.py turns
   into the benchmark's result. *)

open Ttvbench
module Rng = Abonn_util.Rng
module Problem = Abonn_spec.Problem
module Verdict = Abonn_spec.Verdict

let usage = "ttv.exe --workload NAME --seed N --seconds S --trace 0|1"

(* fewest set-ups timed per run; setup_s is their median *)
let setup_reps = 3

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload Workload.names) then begin
    prerr_endline ("unknown workload '" ^ !workload ^ "'; one of: "
                   ^ String.concat ", " Workload.names);
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace <> 0 }

(* --- checks --------------------------------------------------------- *)

type solve_id = { instance : Workload.instance; engine : Workload.engine }

let solves (w : Workload.t) = List.map (fun (instance, engine) -> { instance; engine }) w.solves

let describe s = Printf.sprintf "%s/%s" s.instance.id (Workload.engine_name s.engine)

(* The outcome of one solve, or the reason it failed. *)
type checked = (Workload.outcome, string) result

let failures = ref []
let failed = ref 0
let attempted = ref 0

let fail s why =
  incr failed;
  if List.length !failures < 20 then failures := (describe s ^ ": " ^ why) :: !failures

let same_work (a : Workload.outcome) (b : Workload.outcome) =
  Verdict.equal a.verdict b.verdict && a.calls = b.calls && a.nodes = b.nodes

(* Run [f] on one solve, checking its witness; an exception is a failed
   solve, not a crashed benchmark. *)
let attempt s f : checked =
  incr attempted;
  match f () with
  | exception e -> Error (Printexc.to_string e)
  | (o : Workload.outcome) ->
    match o.verdict with
    | Verdict.Falsified x when not (Problem.is_counterexample s.instance.problem x) ->
      Error "falsified witness is not a counterexample"
    | _ -> Ok o

(* No instance may be verified by one engine and falsified by another. *)
let conflicting pass =
  List.filter_map
    (fun (s, r) ->
      match r with
      | Ok (o : Workload.outcome) ->
        let opposite =
          List.exists
            (fun (s', r') ->
              s'.instance.id = s.instance.id
              &&
              match (o.verdict, r') with
              | Verdict.Verified, Ok { Workload.verdict = Verdict.Falsified _; _ }
              | Verdict.Falsified _, Ok { Workload.verdict = Verdict.Verified; _ } -> true
              | _ -> false)
            pass
        in
        if opposite then Some s else None
      | Error _ -> None)
    pass

(* Fold a pass's checks into the failure count, comparing it with the
   reference pass (the first one) solve by solve. *)
let account ?reference pass =
  let bad = conflicting pass in
  List.iteri
    (fun i (s, r) ->
      match r with
      | Error why -> fail s why
      | Ok o ->
        if List.memq s bad then fail s "verified by one engine, falsified by another"
        else
          match reference with
          | Some ref_pass -> (
            match snd (List.nth ref_pass i) with
            | Ok o' when same_work o o' -> ()
            | _ -> fail s "verdict, calls or nodes differ from the first pass")
          | None -> ())
    pass

(* --- passes ----------------------------------------------------------- *)

(* Run every solve once, in an order drawn from [rng], and return the
   results in the workload's own order.  A fresh order each pass keeps a
   GC slice from landing on the same solve every time. *)
let run_pass rng (w : Workload.t) run =
  let solves = Array.of_list (solves w) in
  let order = Array.init (Array.length solves) Fun.id in
  Rng.shuffle rng order;
  let results = Array.make (Array.length solves) None in
  Array.iter (fun i -> results.(i) <- Some (run solves.(i))) order;
  Array.to_list (Array.map Option.get results)

let plain (w : Workload.t) s =
  (s, attempt s (fun () -> Workload.solve s.engine ~calls:w.calls s.instance.problem))

let decided (o : Workload.outcome) = Verdict.is_solved o.verdict

let ok_outcomes pass = List.filter_map (fun (_, r) -> Result.to_option r) pass

let wall_of pass = List.fold_left (fun acc (o : Workload.outcome) -> acc +. o.wall) 0.0
    (ok_outcomes pass)

(* --- output ----------------------------------------------------------- *)

let json_float v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | status ->
    String.split_on_char '\n' status
    |> List.find_map (fun line ->
           Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
    |> Option.value ~default:Float.nan

let print_result args ~fingerprint ~metrics =
  let obj fields = "{" ^ String.concat ", " fields ^ "}" in
  let field k v = json_string k ^ ": " ^ v in
  print_endline
    (obj
       [ field "workload" (json_string args.workload);
         field "seed" (string_of_int args.seed);
         field "trace" (if args.trace then "1" else "0");
         field "attempted" (string_of_int !attempted);
         field "failed" (string_of_int !failed);
         field "failures" ("[" ^ String.concat ", " (List.rev_map json_string !failures) ^ "]");
         field "fingerprint"
           (obj (List.map (fun (k, v) -> field k (string_of_int v)) fingerprint));
         field "metrics"
           (obj
              (List.map
                 (fun (name, unit, v) ->
                   field name (obj [ field "value" (json_float v); field "unit" (json_string unit) ]))
                 metrics)) ])

let fingerprint_of pass =
  let oks = ok_outcomes pass in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 oks in
  [ ("solves", List.length pass);
    ("decided", List.length (List.filter decided oks));
    ("calls", sum (fun (o : Workload.outcome) -> o.calls));
    ("nodes", sum (fun (o : Workload.outcome) -> o.nodes)) ]

(* --- main ------------------------------------------------------------- *)

(* Set-up times, newest first.  Set-ups after the first run between
   passes rather than back to back, so that their median does not sit
   inside one phase of the host. *)
let setups = ref []

let set_up args =
  let (w, times), s = Workload.timed (fun () -> Workload.setup args.workload) in
  setups := (s, times) :: !setups;
  w

(* Between passes: a set-up runs while fewer than [setup_reps] have, or
   while all of them took under a tenth of the measuring time, so that a
   set-up of milliseconds gets a median over many phases. *)
let set_up_if_owed args =
  let spent = List.fold_left (fun acc (s, _) -> acc +. s) 0.0 !setups in
  if List.length !setups < setup_reps || spent < 0.1 *. args.seconds then ignore (set_up args)

(* Solve time measured so far: set-ups between passes do not count. *)
let measured passes = List.fold_left (fun acc p -> acc +. wall_of p) 0.0 passes

let end_to_end args ~rng (w : Workload.t) =
  let first = run_pass rng w (plain w) in
  account first;
  Printf.eprintf "pass 0: %.4f s\n%!" (wall_of first);
  let rec more acc =
    if measured acc >= args.seconds then List.rev acc
    else begin
      set_up_if_owed args;
      let pass = run_pass rng w (plain w) in
      account ~reference:first pass;
      Printf.eprintf "pass %d: %.4f s\n%!" (List.length acc + 1) (wall_of pass);
      more (pass :: acc)
    end
  in
  let passes = more [ first ] in
  (* each solve's time is the fastest of its repeats: interference from
     the host only ever slows a solve down, and on a shared 2-core host it
     comes in phases of seconds that a median of a few repeats follows *)
  let per_solve =
    List.mapi
      (fun i (_, r) ->
        match r with
        | Ok (o : Workload.outcome) ->
          let times =
            List.filter_map
              (fun p ->
                Option.map (fun (o : Workload.outcome) -> o.wall)
                  (Result.to_option (snd (List.nth p i))))
              passes
          in
          Some (o.verdict, List.fold_left Float.min Float.infinity times)
        | Error _ -> None)
      first
    |> List.filter_map Fun.id
  in
  let opt name unit = function Some v -> [ (name, unit, v) ] | None -> [] in
  let n_solves = List.length first in
  let metrics =
    [ ("wall_s", "s", List.fold_left (fun acc (_, t) -> acc +. t) 0.0 per_solve) ]
    @ opt "verdict_s.p50" "s" (Stats.verdict_percentile 0.5 per_solve)
    @ opt "verdict_s.p75" "s" (Stats.verdict_percentile ~min_beyond:10 0.75 per_solve)
    @ [ ("solved_frac", "ratio",
         float_of_int (List.length (List.filter decided (ok_outcomes first)))
         /. float_of_int n_solves);
        ("passes", "count", float_of_int (List.length passes)) ]
  in
  (fingerprint_of first, metrics)

let per_layer args ~rng (w : Workload.t) =
  let total = Probe.create () in
  let lp_solves = ref 0 and lp_busy = ref 0.0 and exact_leaves = ref 0 and self_s = ref 0.0 in
  let nodes = ref 0 and minor_words = ref 0.0 and major = ref 0 in
  let overheads = ref [] and first = ref None and walls = ref [] in
  let rec loop () =
    if !first <> None then set_up_if_owed args;
    let untraced = run_pass rng w (plain w) in
    account ?reference:!first untraced;
    let reference = match !first with Some r -> r | None -> first := Some untraced; untraced in
    let traced =
      run_pass rng w (fun s ->
          let layers = ref None in
          let r =
            attempt s (fun () ->
                let o, l = Workload.solve_traced s.engine ~calls:w.calls s.instance.problem in
                layers := Some l;
                o)
          in
          (s, r, !layers))
    in
    account ~reference (List.map (fun (s, r, _) -> (s, r)) traced);
    if !overheads = [] then begin
      (* layer figures from the first traced pass; GC from its untraced twin *)
      List.iter
        (fun (_, _, l) ->
          match l with
          | Some (l : Workload.layers) ->
            Probe.add ~into:total l.probe;
            lp_solves := !lp_solves + l.lp_solves;
            lp_busy := !lp_busy +. l.lp_busy;
            exact_leaves := !exact_leaves + l.exact_leaves;
            self_s := !self_s +. l.self_s
          | None -> ())
        traced;
      List.iter
        (fun (o : Workload.outcome) ->
          nodes := !nodes + o.nodes;
          minor_words := !minor_words +. o.minor_words;
          major := !major + o.major_collections)
        (ok_outcomes untraced)
    end;
    let traced_wall = wall_of (List.map (fun (s, r, _) -> (s, r)) traced) in
    overheads := ((traced_wall /. wall_of untraced) -. 1.0) :: !overheads;
    walls := traced_wall +. wall_of untraced :: !walls;
    if List.fold_left ( +. ) 0.0 !walls < args.seconds then loop ()
  in
  loop ();
  let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let p = total in
  let fingerprint =
    fingerprint_of (Option.get !first)
    @ [ ("exact_leaves", !exact_leaves); ("lp_solves", !lp_solves) ]
  in
  ( fingerprint,
    [ ("prop.calls", "count", float_of_int p.prop_calls);
      ("prop.busy_s", "s", p.prop_busy);
      ("prop.us_per_call", "us",
       if p.prop_calls = 0 then 0.0 else 1e6 *. p.prop_busy /. float_of_int p.prop_calls);
      ("prop.warm_frac", "ratio", frac p.prop_warm p.prop_calls);
      ("prop.prune_frac", "ratio", frac p.prop_proved p.prop_calls);
      ("branch.prepare_s", "s", p.branch_prepare);
      ("branch.calls", "count", float_of_int p.branch_calls);
      ("branch.busy_s", "s", p.branch_busy);
      ("attack.calls", "count", float_of_int p.attack_calls);
      ("attack.busy_s", "s", p.attack_busy);
      ("attack.hit_frac", "ratio", frac p.attack_hits p.attack_calls);
      ("lp.solves", "count", float_of_int !lp_solves);
      ("lp.busy_s", "s", !lp_busy);
      ("exact.leaves", "count", float_of_int !exact_leaves);
      ("search.nodes", "count", float_of_int !nodes);
      ("search.self_s", "s", !self_s);
      ("gc.minor_mwords", "Mwords", !minor_words /. 1e6);
      ("gc.major_collections", "count", float_of_int !major);
      ("trace.overhead_frac", "ratio", Stats.median !overheads) ] )

let () =
  let args = parse_args () in
  let w = set_up args in
  let rng = Rng.create args.seed in
  let fingerprint, metrics =
    if args.trace then per_layer args ~rng w else end_to_end args ~rng w
  in
  while List.length !setups < setup_reps do ignore (set_up args) done;
  let med f = Stats.median (List.map f !setups) in
  let setup_metrics =
    if args.trace then
      [ ("data.train_s", "s", med (fun (_, (t : Workload.setup_times)) -> t.train_s));
        ("data.generate_s", "s", med (fun (_, (t : Workload.setup_times)) -> t.generate_s));
        ("ingest.parse_s", "s", med (fun (_, (t : Workload.setup_times)) -> t.parse_s)) ]
    else [ ("setup_s", "s", med fst); ("peak_rss_mb", "MB", peak_rss_mb ()) ]
  in
  print_result args ~fingerprint ~metrics:(setup_metrics @ metrics)

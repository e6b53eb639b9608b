(* Bench baseline comparison behind [abonn_trace bench]: load two
   BENCH_bab_nodes.json files (committed baseline vs fresh run) and
   flag per-instance and geomean throughput regressions beyond a
   threshold.  Bench files nest one level ({"rows": {name: {...}}});
   the pre-stamp flat layout (rows at top level, no schema/commit/date)
   is accepted too, so the gate works against historical baselines. *)

module Json = Abonn_util.Json
module Parse_error = Abonn_util.Parse_error

(* --- bench file model --- *)

type row = {
  nps_cached : float;
  nps_uncached : float option;
  speedup : float option;
  peak_rss_bytes : int option;
}

type bench = {
  commit : string option;
  date : string option;
  geomean_speedup : float option;
  rows : (string * row) list;  (* file order *)
}

let num v name = Option.bind (Json.member name v) Json.as_float

let row_of_json v =
  match num v "nodes_per_sec_cached" with
  | Some nps_cached ->
    Some
      { nps_cached;
        nps_uncached = num v "nodes_per_sec_uncached";
        speedup = num v "speedup";
        peak_rss_bytes = Option.map int_of_float (num v "peak_rss_bytes") }
  | None ->
    (* kernel bench rows (BENCH_kernels.json) carry ns_per_run;
       expose them as runs/sec so the higher-is-better comparison
       below applies unchanged *)
    (match num v "ns_per_run" with
     | Some ns when ns > 0.0 ->
       Some
         { nps_cached = 1e9 /. ns;
           nps_uncached = None;
           speedup = None;
           peak_rss_bytes = None }
     | Some _ | None -> None)

let load_string ?(source = "<string>") text =
  match Json.of_string ~source text with
  | exception Parse_error.Error e -> Error (Parse_error.to_string e)
  | Obj fields as v ->
    (* stamped layout nests the instances under "rows"; the pre-stamp
       layout has them at top level next to "geomean_speedup" *)
    let row_fields =
      match List.assoc_opt "rows" fields with Some (Obj rf) -> rf | _ -> fields
    in
    let rows =
      List.filter_map
        (fun (name, v) -> Option.map (fun r -> (name, r)) (row_of_json v))
        row_fields
    in
    if rows = [] then
      Error (source ^ ": no bench rows (no nodes_per_sec_cached fields)")
    else
      Ok
        { commit = Option.bind (Json.member "commit" v) Json.as_string;
          date = Option.bind (Json.member "date" v) Json.as_string;
          geomean_speedup = num v "geomean_speedup";
          rows }
  | _ -> Error (source ^ ": top-level value is not an object")

let load_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let text =
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      really_input_string ic (in_channel_length ic)
    in
    load_string ~source:path text

(* --- comparison --- *)

type verdict = {
  name : string;
  baseline_nps : float;
  fresh_nps : float;
  delta_pct : float;  (* negative = fresh slower than baseline *)
  regressed : bool;
  baseline_rss : int option;
  fresh_rss : int option;
}

type report = {
  verdicts : verdict list;
  missing : string list;  (* baseline rows absent from the fresh run *)
  geomean_baseline : float option;
  geomean_fresh : float option;
  geomean_regressed : bool;
  ok : bool;
}

let compare_benches ?(scale_baseline = 1.0) ~max_regress ~baseline ~fresh () =
  let threshold = -.max_regress in
  let verdicts =
    List.filter_map
      (fun (name, (b : row)) ->
        match List.assoc_opt name fresh.rows with
        | None -> None
        | Some (f : row) ->
          let baseline_nps = b.nps_cached *. scale_baseline in
          let delta_pct =
            if baseline_nps <= 0.0 then 0.0
            else 100.0 *. (f.nps_cached -. baseline_nps) /. baseline_nps
          in
          Some
            { name;
              baseline_nps;
              fresh_nps = f.nps_cached;
              delta_pct;
              regressed = delta_pct < threshold;
              baseline_rss = b.peak_rss_bytes;
              fresh_rss = f.peak_rss_bytes })
      baseline.rows
  in
  let missing =
    List.filter_map
      (fun (name, _) ->
        if List.mem_assoc name fresh.rows then None else Some name)
      baseline.rows
  in
  let geomean_baseline =
    Option.map (fun g -> g *. scale_baseline) baseline.geomean_speedup
  in
  let geomean_regressed =
    match (geomean_baseline, fresh.geomean_speedup) with
    | Some b, Some f when b > 0.0 -> 100.0 *. (f -. b) /. b < threshold
    | _ -> false
  in
  { verdicts;
    missing;
    geomean_baseline;
    geomean_fresh = fresh.geomean_speedup;
    geomean_regressed;
    ok =
      missing = []
      && (not geomean_regressed)
      && List.for_all (fun v -> not v.regressed) verdicts }

(* --- instrumentation overhead gate --------------------------------

   Variant rows are named [base@SUFFIX] (the bench binary re-runs an
   instance with a sink or sampling enabled and appends the suffixed
   row); the gate bounds how much cached throughput the variant may
   lose against its own un-suffixed base row in the SAME file, so it
   needs no committed baseline and is immune to machine speed. *)

type overhead_verdict = {
  name : string;  (* base row name *)
  base_nps : float;
  variant_nps : float;
  overhead_pct : float;  (* positive = variant slower *)
  exceeded : bool;
}

type overhead_report = {
  suffix : string;
  max_pct : float;
  overhead_verdicts : overhead_verdict list;
  orphan_variants : string list;  (* variant rows without a base row *)
  overhead_ok : bool;
}

let check_overhead ~suffix ~max_pct bench =
  let tag = "@" ^ suffix in
  let tlen = String.length tag in
  let verdicts = ref [] and orphans = ref [] in
  List.iter
    (fun (name, (v : row)) ->
      let nlen = String.length name in
      if nlen > tlen && String.sub name (nlen - tlen) tlen = tag then begin
        let base = String.sub name 0 (nlen - tlen) in
        match List.assoc_opt base bench.rows with
        | None -> orphans := base :: !orphans
        | Some (b : row) ->
          let overhead_pct =
            if b.nps_cached <= 0.0 then 0.0
            else 100.0 *. (b.nps_cached -. v.nps_cached) /. b.nps_cached
          in
          verdicts :=
            { name = base;
              base_nps = b.nps_cached;
              variant_nps = v.nps_cached;
              overhead_pct;
              exceeded = overhead_pct > max_pct }
            :: !verdicts
      end)
    bench.rows;
  let overhead_verdicts = List.rev !verdicts in
  { suffix;
    max_pct;
    overhead_verdicts;
    orphan_variants = List.rev !orphans;
    overhead_ok =
      (* an empty verdict list means the bench never ran the variant —
         fail loudly rather than letting CI pass vacuously *)
      overhead_verdicts <> []
      && !orphans = []
      && List.for_all (fun v -> not v.exceeded) overhead_verdicts }

let overhead_to_string r =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "overhead gate @%s (max %.1f%%)" r.suffix r.max_pct;
  line "%-16s %12s %12s %9s  %s" "instance" "base n/s" "variant n/s" "overhead"
    "status";
  List.iter
    (fun v ->
      line "%-16s %12.1f %12.1f %+8.2f%%  %s" v.name v.base_nps v.variant_nps
        v.overhead_pct
        (if v.exceeded then "EXCEEDED" else "ok"))
    r.overhead_verdicts;
  List.iter
    (fun name -> line "%-16s variant row present but base row missing" name)
    r.orphan_variants;
  if r.overhead_verdicts = [] then line "no @%s rows in bench file" r.suffix;
  line "gate: %s" (if r.overhead_ok then "PASS" else "FAIL");
  Buffer.contents buf

let mib bytes = float_of_int bytes /. (1024.0 *. 1024.0)

let rss_cell = function Some b -> Printf.sprintf "%.1f" (mib b) | None -> "-"

let report_to_string ~max_regress r =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "%-16s %12s %12s %8s %10s %10s  %s" "instance" "base n/s" "fresh n/s"
    "delta" "base MiB" "fresh MiB" "status";
  line "%s" (String.make 84 '-');
  List.iter
    (fun (v : verdict) ->
      line "%-16s %12.1f %12.1f %+7.1f%% %10s %10s  %s" v.name v.baseline_nps
        v.fresh_nps v.delta_pct (rss_cell v.baseline_rss) (rss_cell v.fresh_rss)
        (if v.regressed then "REGRESSED" else "ok"))
    r.verdicts;
  List.iter (fun name -> line "%-16s missing from fresh run" name) r.missing;
  (match (r.geomean_baseline, r.geomean_fresh) with
   | Some b, Some f ->
     line "geomean speedup  %12.3f %12.3f %+7.1f%% %23s %s" b f
       (if b > 0.0 then 100.0 *. (f -. b) /. b else 0.0)
       ""
       (if r.geomean_regressed then "REGRESSED" else "ok")
   | _ -> ());
  line "";
  line "gate: %s (threshold: fresh no more than %.1f%% below baseline)"
    (if r.ok then "PASS" else "FAIL")
    max_regress;
  Buffer.contents buf

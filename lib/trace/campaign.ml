(* Campaign analytics over the run registry: the instance-set view the
   paper's evaluation is told in.  Where [Summary]/[Phases] explain one
   run, this module aggregates every registry line (all schemas 1-3,
   any number of files) into solved-vs-time cactus curves, PAR-2
   scores, per-engine x per-family win/loss matrices and cross-commit
   trends, and joins two commits' runs — optionally through their
   traces via [Phases]/[Explain] — into a causal "why did commit B get
   slower" attribution.  Every renderer is deterministic and
   byte-stable: identical inputs produce identical bytes, so the
   outputs work as golden-test subjects and committed CI artifacts. *)

module Event = Abonn_obs.Event

type issue = { file : string; line : int; msg : string }

type t = {
  records : Registry.record list;  (* file order, then line order *)
  issues : issue list;
}

let load paths =
  match
    List.concat_map
      (fun file ->
        Registry.fold_lines file ~init:[] ~f:(fun acc line_no line ->
            match Registry.of_json ~source:file ~line:line_no line with
            | Ok r -> `Record r :: acc
            | Error msg -> `Issue { file; line = line_no; msg } :: acc)
        |> List.rev)
      paths
  with
  | entries ->
    Ok
      { records = List.filter_map (function `Record r -> Some r | _ -> None) entries;
        issues = List.filter_map (function `Issue i -> Some i | _ -> None) entries }
  | exception Sys_error msg -> Error msg

(* --- normalisation -------------------------------------------------

   Bench rows encode their variants as instance suffixes ("@d4",
   "@flight", "@i16").  The "@dN" suffix is the parallel dimension and
   belongs with the record's [domains] field (schema-1 lines predate
   it); the other suffixes are genuine instance variants and stay part
   of the instance identity. *)

let split_domains_suffix instance =
  match String.rindex_opt instance '@' with
  | Some i
    when i + 2 < String.length instance
         && instance.[i + 1] = 'd'
         && String.for_all
              (function '0' .. '9' -> true | _ -> false)
              (String.sub instance (i + 2) (String.length instance - i - 2)) ->
    ( String.sub instance 0 i,
      int_of_string (String.sub instance (i + 2) (String.length instance - i - 2)) )
  | _ -> (instance, 0)

let instance_key (r : Registry.record) = fst (split_domains_suffix r.instance)

let effective_domains (r : Registry.record) =
  match split_domains_suffix r.instance with
  | _, d when d > 1 -> d
  | _ -> r.domains

(* The instance family: the naming prefix shared by a generated zoo
   ("mlp_d6_seed1" -> "mlp", "acas_0/P1" -> "acas", "mnist_l2/03" ->
   "mnist"), combined with the record's source format and parallel
   dimension — the three axes the per-family matrix is told in. *)
let instance_prefix instance =
  let stop = ref (String.length instance) in
  String.iteri
    (fun i c ->
      match c with
      | '_' | '/' | '#' | '@' when i < !stop -> stop := i
      | _ -> ())
    instance;
  if !stop = 0 then instance else String.sub instance 0 !stop

let family (r : Registry.record) =
  Printf.sprintf "%s/%s/d%d" r.source_format
    (instance_prefix (instance_key r))
    (effective_domains r)

let solved (r : Registry.record) =
  match r.verdict with
  | "verified" -> true
  | v -> String.length v >= 9 && String.sub v 0 9 = "falsified"

(* The identity a run answers for: re-runs of the same identity within
   one commit supersede each other (the registry is append-only, so CI
   retries and local reruns pile up); across commits the identity is
   the join key of the attribution mode. *)
let run_key (r : Registry.record) =
  (r.engine, r.model, r.instance, r.seed, effective_domains r, r.source_format)

(* --- commit timeline ----------------------------------------------- *)

(* Commits ordered by first appearance (min ts, then commit string):
   ISO-8601 UTC strings sort chronologically as bytes. *)
let commits t =
  let first : (string, string) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (r : Registry.record) ->
      match Hashtbl.find_opt first r.commit with
      | Some ts when ts <= r.ts -> ()
      | _ -> Hashtbl.replace first r.commit r.ts)
    t.records;
  Hashtbl.fold (fun c ts acc -> (ts, c) :: acc) first []
  |> List.sort compare
  |> List.map snd

let head_commit t =
  match List.rev (commits t) with c :: _ -> Some c | [] -> None

(* Latest run per identity within one commit, in deterministic
   (sorted-by-key) order. *)
let select ~commit t =
  let best : ((string * string * string * int * int * string), Registry.record)
      Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (r : Registry.record) ->
      if r.commit = commit then
        let key = run_key r in
        match Hashtbl.find_opt best key with
        | Some prev when prev.ts > r.ts -> ()
        | _ -> Hashtbl.replace best key r)
    t.records;
  Hashtbl.fold (fun _ r acc -> r :: acc) best []
  |> List.sort (fun a b -> compare (run_key a) (run_key b))

let engines records =
  List.sort_uniq String.compare
    (List.map (fun (r : Registry.record) -> r.engine) records)

let families records = List.sort_uniq String.compare (List.map family records)

(* --- cactus / survival curves -------------------------------------- *)

type cactus_point = { nth : int; wall : float }

(* Per engine: k-th cheapest solved instance against its wall time —
   the classic solved-vs-time staircase. *)
let cactus records =
  List.map
    (fun e ->
      let walls =
        List.filter_map
          (fun (r : Registry.record) ->
            if r.engine = e && solved r then Some r.wall else None)
          records
        |> List.sort compare
      in
      (e, List.mapi (fun i w -> { nth = i + 1; wall = w }) walls))
    (engines records)

let cactus_to_csv curves =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "engine,solved,wall_s\n";
  List.iter
    (fun (e, points) ->
      List.iter
        (fun p -> Buffer.add_string buf (Printf.sprintf "%s,%d,%.6f\n" e p.nth p.wall))
        points)
    curves;
  Buffer.contents buf

(* Hand-rolled SVG cactus plot: x = instances solved, y = wall seconds.
   Fixed canvas, fixed palette, fixed numeric formats — byte-stable. *)
let palette =
  [| "#4477aa"; "#ee6677"; "#228833"; "#ccbb44"; "#66ccee"; "#aa3377"; "#bbbbbb" |]

let cactus_to_svg curves =
  let width = 640 and height = 400 in
  let ml = 60 and mr = 150 and mt = 20 and mb = 45 in
  let pw = float_of_int (width - ml - mr)
  and ph = float_of_int (height - mt - mb) in
  let max_n =
    List.fold_left (fun acc (_, ps) -> max acc (List.length ps)) 1 curves
  in
  let max_w =
    List.fold_left
      (fun acc (_, ps) ->
        List.fold_left (fun acc p -> Float.max acc p.wall) acc ps)
      1e-6 curves
  in
  let x n = float_of_int ml +. (pw *. float_of_int n /. float_of_int max_n) in
  let y w = float_of_int (mt + (height - mt - mb)) -. (ph *. w /. max_w) in
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line
    "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
     viewBox=\"0 0 %d %d\" font-family=\"monospace\" font-size=\"11\">"
    width height width height;
  line "<rect width=\"%d\" height=\"%d\" fill=\"white\"/>" width height;
  (* axes *)
  line
    "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"black\"/>"
    ml (height - mb) (width - mr) (height - mb);
  line "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"black\"/>" ml mt ml
    (height - mb);
  (* ticks: 5 on each axis *)
  for i = 0 to 4 do
    let n = max_n * i / 4 in
    let xi = x n in
    line
      "<line x1=\"%.1f\" y1=\"%d\" x2=\"%.1f\" y2=\"%d\" stroke=\"black\"/>"
      xi (height - mb) xi (height - mb + 4);
    line
      "<text x=\"%.1f\" y=\"%d\" text-anchor=\"middle\">%d</text>"
      xi (height - mb + 16) n;
    let w = max_w *. float_of_int i /. 4.0 in
    let yi = y w in
    line "<line x1=\"%d\" y1=\"%.1f\" x2=\"%d\" y2=\"%.1f\" stroke=\"black\"/>"
      (ml - 4) yi ml yi;
    line "<text x=\"%d\" y=\"%.1f\" text-anchor=\"end\">%.3g</text>" (ml - 7)
      (yi +. 4.0) w
  done;
  line
    "<text x=\"%.1f\" y=\"%d\" text-anchor=\"middle\">instances solved</text>"
    (float_of_int ml +. (pw /. 2.0))
    (height - 8);
  line
    "<text x=\"14\" y=\"%.1f\" text-anchor=\"middle\" transform=\"rotate(-90 14 \
     %.1f)\">wall s</text>"
    (float_of_int mt +. (ph /. 2.0))
    (float_of_int mt +. (ph /. 2.0));
  (* one staircase polyline per engine, starting at (0, 0) *)
  List.iteri
    (fun i (e, points) ->
      let color = palette.(i mod Array.length palette) in
      let coords =
        String.concat " "
          (Printf.sprintf "%.1f,%.1f" (x 0) (y 0.0)
          :: List.map (fun p -> Printf.sprintf "%.1f,%.1f" (x p.nth) (y p.wall)) points)
      in
      line
        "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\"/>"
        coords color;
      let ly = mt + 14 + (i * 16) in
      line
        "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"%s\" \
         stroke-width=\"1.5\"/>"
        (width - mr + 10) ly (width - mr + 30) ly color;
      line "<text x=\"%d\" y=\"%d\">%s (%d)</text>" (width - mr + 36) (ly + 4) e
        (List.length points))
    curves;
  line "</svg>";
  Buffer.contents buf

(* --- PAR-2 ---------------------------------------------------------

   The standard SAT-competition penalised average runtime: solved runs
   count their wall time, unsolved runs twice the campaign budget.  The
   registry does not record per-run budgets, so the budget defaults to
   the longest wall observed in the selection (every run was allowed at
   least that long); pass [~budget] to override. *)

type par2_row = {
  engine : string;
  runs : int;
  solved_n : int;
  par2 : float;
  geomean_solved_wall : float;  (* nan when nothing solved *)
}

let par2 ?budget records =
  let budget =
    match budget with
    | Some b -> b
    | None ->
      List.fold_left (fun acc (r : Registry.record) -> Float.max acc r.wall) 1e-6
        records
  in
  ( budget,
    List.map
      (fun e ->
        let mine =
          List.filter (fun (r : Registry.record) -> r.engine = e) records
        in
        let solved_runs = List.filter solved mine in
        let n = List.length mine and sn = List.length solved_runs in
        let total =
          List.fold_left (fun acc (r : Registry.record) -> acc +. r.wall) 0.0
            solved_runs
          +. (2.0 *. budget *. float_of_int (n - sn))
        in
        let geomean =
          if sn = 0 then Float.nan
          else
            exp
              (List.fold_left
                 (fun acc (r : Registry.record) -> acc +. log (Float.max 1e-9 r.wall))
                 0.0 solved_runs
              /. float_of_int sn)
        in
        { engine = e;
          runs = n;
          solved_n = sn;
          par2 = (if n = 0 then Float.nan else total /. float_of_int n);
          geomean_solved_wall = geomean })
      (engines records) )

(* --- engine x family win/loss matrix ------------------------------- *)

type cell = { cell_runs : int; cell_solved : int; wins : int; losses : int }

(* Within a family, engines compete per identity (model, instance,
   seed, domains, source_format): the strictly fastest solver wins;
   an engine that left an identity unsolved while some other engine
   solved it takes a loss.  Identities only one engine ran produce
   neither wins nor losses. *)
let matrix records =
  let fams = families records and engs = engines records in
  let tbl = Hashtbl.create 32 in
  let get e f =
    Option.value
      ~default:{ cell_runs = 0; cell_solved = 0; wins = 0; losses = 0 }
      (Hashtbl.find_opt tbl (e, f))
  in
  let put e f c = Hashtbl.replace tbl (e, f) c in
  List.iter
    (fun (r : Registry.record) ->
      let c = get r.engine (family r) in
      put r.engine (family r)
        { c with
          cell_runs = c.cell_runs + 1;
          cell_solved = (c.cell_solved + if solved r then 1 else 0) })
    records;
  (* group by identity minus engine *)
  let groups = Hashtbl.create 32 in
  List.iter
    (fun (r : Registry.record) ->
      let key =
        (r.model, instance_key r, r.seed, effective_domains r, r.source_format)
      in
      Hashtbl.replace groups key
        (r :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
    records;
  Hashtbl.iter
    (fun _ group ->
      match group with
      | [] | [ _ ] -> ()
      | group ->
        let solvers = List.filter solved group in
        (match
           List.sort
             (fun (a : Registry.record) (b : Registry.record) ->
               compare (a.wall, a.engine) (b.wall, b.engine))
             solvers
         with
         | [] -> ()
         | winner :: rest ->
           (* a strict win needs a strictly better wall than every rival *)
           let strict =
             List.for_all (fun (r : Registry.record) -> r.wall > winner.wall) rest
           in
           if strict && List.length group > 1 then begin
             let c = get winner.engine (family winner) in
             put winner.engine (family winner) { c with wins = c.wins + 1 }
           end;
           List.iter
             (fun (r : Registry.record) ->
               if not (solved r) then begin
                 let c = get r.engine (family r) in
                 put r.engine (family r) { c with losses = c.losses + 1 }
               end)
             group))
    groups;
  (engs, fams, fun e f -> get e f)

(* --- cross-commit trends ------------------------------------------- *)

type trend_row = {
  trend_commit : string;
  first_ts : string;
  trend_runs : int;
  trend_solved : int;
  trend_par2 : float;
  trend_geomean : float;
}

let trends ?budget t =
  List.map
    (fun commit ->
      let records = select ~commit t in
      let first_ts =
        List.fold_left
          (fun acc (r : Registry.record) ->
            if acc = "" || r.ts < acc then r.ts else acc)
          "" records
      in
      let budget_used, rows = par2 ?budget records in
      ignore budget_used;
      let runs = List.length records in
      let solved_n = List.length (List.filter solved records) in
      let weighted =
        (* campaign-level PAR-2: runs-weighted mean of the per-engine rows *)
        let num, den =
          List.fold_left
            (fun (num, den) row ->
              if Float.is_nan row.par2 then (num, den)
              else (num +. (row.par2 *. float_of_int row.runs), den + row.runs))
            (0.0, 0) rows
        in
        if den = 0 then Float.nan else num /. float_of_int den
      in
      let geo =
        let sum, n =
          List.fold_left
            (fun (sum, n) (r : Registry.record) ->
              if solved r then (sum +. log (Float.max 1e-9 r.wall), n + 1)
              else (sum, n))
            (0.0, 0) records
        in
        if n = 0 then Float.nan else exp (sum /. float_of_int n)
      in
      { trend_commit = commit;
        first_ts;
        trend_runs = runs;
        trend_solved = solved_n;
        trend_par2 = weighted;
        trend_geomean = geo })
    (commits t)

(* --- cross-commit attribution -------------------------------------- *)

type pair_delta = {
  pair_engine : string;
  pair_instance : string;  (* model/instance for display *)
  base_wall : float;
  head_wall : float;
  delta : float;           (* positive = head slower *)
  base_solved : bool;
  head_solved : bool;
}

type attribution = {
  base_commit : string;
  head_commit : string;
  pairs : pair_delta list;    (* sorted by delta, slowest regressions first *)
  unmatched_base : int;
  unmatched_head : int;
  total_delta : float;
  newly_unsolved : int;
  newly_solved : int;
}

let attribute ~base ~head t =
  let base_records = select ~commit:base t
  and head_records = select ~commit:head t in
  let base_tbl = Hashtbl.create 64 in
  List.iter
    (fun (r : Registry.record) -> Hashtbl.replace base_tbl (run_key r) r)
    base_records;
  let pairs = ref [] and matched = ref 0 in
  List.iter
    (fun (h : Registry.record) ->
      match Hashtbl.find_opt base_tbl (run_key h) with
      | None -> ()
      | Some b ->
        incr matched;
        pairs :=
          { pair_engine = h.engine;
            pair_instance = Printf.sprintf "%s/%s" h.model h.instance;
            base_wall = b.wall;
            head_wall = h.wall;
            delta = h.wall -. b.wall;
            base_solved = solved b;
            head_solved = solved h }
          :: !pairs)
    head_records;
  let pairs =
    List.sort
      (fun a b -> compare (b.delta, a.pair_instance) (a.delta, b.pair_instance))
      !pairs
  in
  { base_commit = base;
    head_commit = head;
    pairs;
    unmatched_base = List.length base_records - !matched;
    unmatched_head = List.length head_records - !matched;
    total_delta = List.fold_left (fun acc p -> acc +. p.delta) 0.0 pairs;
    newly_unsolved =
      List.length (List.filter (fun p -> p.base_solved && not p.head_solved) pairs);
    newly_solved =
      List.length (List.filter (fun p -> (not p.base_solved) && p.head_solved) pairs) }

(* --- trace-level attribution ---------------------------------------

   When the regressed runs' traces are at hand, the wall-time delta can
   be charged to phases: the [Phases] span accounting of each trace is
   joined phase by phase, and the [Explain] wasted-work fraction plus
   the bound_reuse cache annotations locate search-quality shifts the
   phase table cannot see.  The dominant phase delta is the causal
   headline ("commit B is slower because LP time doubled"). *)

type trace_attribution = {
  phase_deltas : (string * float * float) list;  (* name, base_s, head_s *)
  dominant : (string * float) option;            (* largest positive delta *)
  wasted_base : float;
  wasted_head : float;
  reuse_events_base : int;
  reuse_events_head : int;
  layers_skipped_base : int;
  layers_skipped_head : int;
}

let phase_table events =
  let p = Phases.of_events events in
  List.map (fun (n, s) -> ("appver." ^ n, s.Phases.total)) p.Phases.appver
  @ [ ("lp", Float.max 0.0 (p.Phases.lp.Phases.total -. p.Phases.lp_in_appver)) ]
  @ List.map (fun (n, s) -> ("attack." ^ n, s.Phases.total)) p.Phases.attack
  @ [ ("search overhead", p.Phases.overhead) ]

let reuse_stats events =
  List.fold_left
    (fun (n, skipped) env ->
      match env.Event.event with
      | Event.Bound_reuse { layers_skipped; _ } -> (n + 1, skipped + layers_skipped)
      | _ -> (n, skipped))
    (0, 0) events

let trace_attribute ~base ~head =
  let tb = phase_table base and th = phase_table head in
  let names =
    List.sort_uniq String.compare (List.map fst tb @ List.map fst th)
  in
  let get tbl n = Option.value ~default:0.0 (List.assoc_opt n tbl) in
  let phase_deltas = List.map (fun n -> (n, get tb n, get th n)) names in
  let dominant =
    List.fold_left
      (fun acc (n, b, h) ->
        let d = h -. b in
        match acc with
        | Some (_, best) when best >= d -> acc
        | _ when d > 0.0 -> Some (n, d)
        | _ -> acc)
      None phase_deltas
  in
  let eb = Explain.of_events base and eh = Explain.of_events head in
  let rb, sb = reuse_stats base and rh, sh = reuse_stats head in
  { phase_deltas;
    dominant;
    wasted_base = eb.Explain.wasted_frac;
    wasted_head = eh.Explain.wasted_frac;
    reuse_events_base = rb;
    reuse_events_head = rh;
    layers_skipped_base = sb;
    layers_skipped_head = sh }

(* --- rendering ----------------------------------------------------- *)

type format = Md | Csv | Svg

let format_of_string = function
  | "md" -> Some Md
  | "csv" -> Some Csv
  | "svg" -> Some Svg
  | _ -> None

let fnum f = if Float.is_nan f then "-" else Printf.sprintf "%.4f" f

let md_report ?against ?trace_pair ?budget ~commit t =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let records = select ~commit t in
  let all_commits = commits t in
  line "# Campaign report";
  line "";
  line "- commit under report: `%s` (of %d commit(s) in the registry)" commit
    (List.length all_commits);
  line "- runs: %d selected (latest per engine/model/instance/seed/domains), %d \
        registry record(s) total"
    (List.length records) (List.length t.records);
  if t.issues <> [] then
    line "- %d unparseable registry line(s) skipped" (List.length t.issues);
  line "";
  (* PAR-2 *)
  let budget_used, rows = par2 ?budget records in
  line "## PAR-2 (budget %.4f s, unsolved = 2x budget)" budget_used;
  line "";
  line "| engine | runs | solved | rate | PAR-2 s | geomean solved wall s |";
  line "|---|---:|---:|---:|---:|---:|";
  List.iter
    (fun r ->
      line "| %s | %d | %d | %.1f%% | %s | %s |" r.engine r.runs r.solved_n
        (if r.runs = 0 then 0.0
         else 100.0 *. float_of_int r.solved_n /. float_of_int r.runs)
        (fnum r.par2)
        (fnum r.geomean_solved_wall))
    rows;
  line "";
  (* cactus, as a compact table; CSV/SVG renderers carry the full curves *)
  let curves = cactus records in
  line "## Cactus (instances solved vs wall seconds)";
  line "";
  line "| engine | solved | wall at 25%% | wall at 50%% | wall at 100%% |";
  line "|---|---:|---:|---:|---:|";
  List.iter
    (fun (e, points) ->
      let n = List.length points in
      let at frac =
        if n = 0 then "-"
        else
          let idx = max 1 (int_of_float (ceil (frac *. float_of_int n))) in
          match List.nth_opt points (idx - 1) with
          | Some p -> Printf.sprintf "%.4f" p.wall
          | None -> "-"
      in
      line "| %s | %d | %s | %s | %s |" e n (at 0.25) (at 0.5) (at 1.0))
    curves;
  line "";
  (* matrix *)
  let engs, fams, get = matrix records in
  line "## Engine x family (solved/runs, W strict fastest-solver wins, L \
        unsolved-while-beaten)";
  line "";
  line "| engine | %s |" (String.concat " | " fams);
  line "|---|%s" (String.concat "" (List.map (fun _ -> "---|") fams));
  List.iter
    (fun e ->
      let cells =
        List.map
          (fun f ->
            let c = get e f in
            if c.cell_runs = 0 then "-"
            else
              Printf.sprintf "%d/%d (%dW/%dL)" c.cell_solved c.cell_runs c.wins
                c.losses)
          fams
      in
      line "| %s | %s |" e (String.concat " | " cells))
    engs;
  line "";
  (* trends *)
  let trend_rows = trends ?budget t in
  line "## Cross-commit trend";
  line "";
  line "| commit | first ts | runs | solved | PAR-2 s | geomean solved wall s | \
        dPAR-2 |";
  line "|---|---|---:|---:|---:|---:|---:|";
  List.fold_left
    (fun prev r ->
      let delta =
        match prev with
        | Some p when not (Float.is_nan p) && not (Float.is_nan r.trend_par2) ->
          Printf.sprintf "%+.4f" (r.trend_par2 -. p)
        | _ -> "-"
      in
      line "| `%s` | %s | %d | %d | %s | %s | %s |" r.trend_commit r.first_ts
        r.trend_runs r.trend_solved (fnum r.trend_par2) (fnum r.trend_geomean)
        delta;
      Some r.trend_par2)
    None trend_rows
  |> ignore;
  line "";
  (* attribution *)
  (match against with
   | None -> ()
   | Some base ->
     let a = attribute ~base ~head:commit t in
     line "## Attribution: `%s` -> `%s`" a.base_commit a.head_commit;
     line "";
     line
       "- %d matched run pair(s) (%d only in base, %d only in head), total wall \
        delta %+.4f s"
       (List.length a.pairs) a.unmatched_base a.unmatched_head a.total_delta;
     line "- verdict shifts: %d newly unsolved, %d newly solved" a.newly_unsolved
       a.newly_solved;
     line "";
     line "| engine | instance | base wall s | head wall s | delta s | verdict |";
     line "|---|---|---:|---:|---:|---|";
     let top = List.filteri (fun i _ -> i < 10) a.pairs in
     List.iter
       (fun p ->
         line "| %s | %s | %.4f | %.4f | %+.4f | %s |" p.pair_engine
           p.pair_instance p.base_wall p.head_wall p.delta
           (match (p.base_solved, p.head_solved) with
            | true, false -> "solved -> UNSOLVED"
            | false, true -> "unsolved -> solved"
            | _ -> ""))
       top;
     line "");
  (match trace_pair with
   | None -> ()
   | Some ta ->
     line "## Trace attribution (phase wall-time deltas)";
     line "";
     (match ta.dominant with
      | Some (name, d) -> line "**Dominant phase delta: %s (%+.6f s)**" name d
      | None -> line "No phase got slower between the two traces.");
     line "";
     line "| phase | base s | head s | delta s |";
     line "|---|---:|---:|---:|";
     List.iter
       (fun (n, b, h) -> line "| %s | %.6f | %.6f | %+.6f |" n b h (h -. b))
       ta.phase_deltas;
     line "";
     line "- wasted-work fraction: %s -> %s"
       (fnum ta.wasted_base) (fnum ta.wasted_head);
     line "- bound-reuse: %d event(s) / %d layer(s) skipped -> %d / %d"
       ta.reuse_events_base ta.layers_skipped_base ta.reuse_events_head
       ta.layers_skipped_head;
     line "");
  Buffer.contents buf

let report ?against ?trace_pair ?budget ?commit t format =
  match (match commit with Some c -> Some c | None -> head_commit t) with
  | None -> Error "registry holds no records to report on"
  | Some commit ->
    if not (List.mem commit (commits t)) then
      Error (Printf.sprintf "commit %S does not appear in the registry" commit)
    else begin
      match against with
      | Some base when not (List.mem base (commits t)) ->
        Error (Printf.sprintf "--against commit %S does not appear in the registry" base)
      | _ ->
        let records = select ~commit t in
        (match format with
         | Md -> Ok (md_report ?against ?trace_pair ?budget ~commit t)
         | Csv -> Ok (cactus_to_csv (cactus records))
         | Svg -> Ok (cactus_to_svg (cactus records)))
    end

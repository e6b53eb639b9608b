type t =
  | Run_started of { engine : string; instance : string }
  | Run_finished of {
      engine : string;
      instance : string;
      verdict : string;
      calls : int;
      nodes : int;
      max_depth : int;
      wall : float;
    }
  | Node_selected of { engine : string; depth : int; ucb : float }
  | Node_evaluated of {
      engine : string;
      depth : int;
      gamma : string;
      phat : float;
      reward : float;
    }
  | Backprop of { engine : string; depth : int; reward : float; size : int }
  | Frontier_pop of {
      engine : string;
      depth : int;
      frontier : int;
      priority : float;
    }
  | Exact_leaf of { engine : string; depth : int; verified : bool }
  | Bound_computed of {
      appver : string;
      depth : int;
      phat : float;
      elapsed : float;
    }
  | Bound_reuse of {
      appver : string;
      depth : int;
      from_layer : int;
      layers_skipped : int;
      clamps : int;
    }
  | Lp_solved of { vars : int; rows : int; status : string; elapsed : float }
  | Lp_warm of {
      depth : int;
      rows : int;
      hit : bool;
      pivots : int;
      fallback : string;
      elapsed : float;
    }
  | Attack_tried of { attack : string; success : bool; elapsed : float }
  | Verdict_reached of { engine : string; verdict : string; elapsed : float }
  | Resource_sample of {
      engine : string;
      rss_bytes : int;
      heap_bytes : int;
      minor_words : float;
      major_words : float;
      minor_gcs : int;
      major_gcs : int;
      cpu : float;
      wall : float;
      open_nodes : int;
      nodes : int;
      max_depth : int;
      nps : float;
    }
  | Domain_summary of {
      engine : string;
      domain : int;
      processed : int;
      pushed : int;
      stolen : int;
      idle : int;
    }
  | Ucb_decision of {
      engine : string;
      depth : int;
      chosen : string;
      sample : int;
      plus_exploit : float;
      plus_explore : float;
      plus_visits : int;
      minus_exploit : float;
      minus_explore : float;
      minus_visits : int;
    }
  | Branch_decision of {
      engine : string;
      depth : int;
      kind : string;
      choice : int;
      score : float;
      runner_up : int;
      runner_up_score : float;
      candidates : int;
      sample : int;
    }
  | Frontier_decision of {
      engine : string;
      depth : int;
      priority : float;
      runner_up : float;
      frontier : int;
      sample : int;
    }

type envelope = { seq : int; t : float; domain : int option; event : t }

let name = function
  | Run_started _ -> "run_started"
  | Run_finished _ -> "run_finished"
  | Node_selected _ -> "node_selected"
  | Node_evaluated _ -> "node_evaluated"
  | Backprop _ -> "backprop"
  | Frontier_pop _ -> "frontier_pop"
  | Exact_leaf _ -> "exact_leaf"
  | Bound_computed _ -> "bound_computed"
  | Bound_reuse _ -> "bound_reuse"
  | Lp_solved _ -> "lp_solved"
  | Lp_warm _ -> "lp_warm"
  | Attack_tried _ -> "attack_tried"
  | Verdict_reached _ -> "verdict_reached"
  | Resource_sample _ -> "resource_sample"
  | Domain_summary _ -> "domain_summary"
  | Ucb_decision _ -> "ucb_decision"
  | Branch_decision _ -> "branch_decision"
  | Frontier_decision _ -> "frontier_decision"

module Json = Abonn_util.Json
module Parse_error = Abonn_util.Parse_error

(* The per-event schema: every wire field after the envelope, in wire
   order.  The encoder, [equal] and the Perfetto exporter read it. *)
let fields : t -> (string * Json.t) list = function
  | Run_started { engine; instance } ->
    [ ("engine", Str engine); ("instance", Str instance) ]
  | Run_finished { engine; instance; verdict; calls; nodes; max_depth; wall } ->
    [ ("engine", Str engine); ("instance", Str instance); ("verdict", Str verdict);
      ("calls", Int calls); ("nodes", Int nodes); ("max_depth", Int max_depth);
      ("wall", Float wall) ]
  | Node_selected { engine; depth; ucb } ->
    [ ("engine", Str engine); ("depth", Int depth); ("ucb", Float ucb) ]
  | Node_evaluated { engine; depth; gamma; phat; reward } ->
    [ ("engine", Str engine); ("depth", Int depth); ("gamma", Str gamma);
      ("phat", Float phat); ("reward", Float reward) ]
  | Backprop { engine; depth; reward; size } ->
    [ ("engine", Str engine); ("depth", Int depth); ("reward", Float reward);
      ("size", Int size) ]
  | Frontier_pop { engine; depth; frontier; priority } ->
    [ ("engine", Str engine); ("depth", Int depth); ("frontier", Int frontier);
      ("priority", Float priority) ]
  | Exact_leaf { engine; depth; verified } ->
    [ ("engine", Str engine); ("depth", Int depth); ("verified", Bool verified) ]
  | Bound_computed { appver; depth; phat; elapsed } ->
    [ ("appver", Str appver); ("depth", Int depth); ("phat", Float phat);
      ("elapsed", Float elapsed) ]
  | Bound_reuse { appver; depth; from_layer; layers_skipped; clamps } ->
    [ ("appver", Str appver); ("depth", Int depth); ("from_layer", Int from_layer);
      ("layers_skipped", Int layers_skipped); ("clamps", Int clamps) ]
  | Lp_solved { vars; rows; status; elapsed } ->
    [ ("vars", Int vars); ("rows", Int rows); ("status", Str status);
      ("elapsed", Float elapsed) ]
  | Lp_warm { depth; rows; hit; pivots; fallback; elapsed } ->
    [ ("depth", Int depth); ("rows", Int rows); ("hit", Bool hit);
      ("pivots", Int pivots); ("fallback", Str fallback);
      ("elapsed", Float elapsed) ]
  | Attack_tried { attack; success; elapsed } ->
    [ ("attack", Str attack); ("success", Bool success); ("elapsed", Float elapsed) ]
  | Verdict_reached { engine; verdict; elapsed } ->
    [ ("engine", Str engine); ("verdict", Str verdict); ("elapsed", Float elapsed) ]
  | Resource_sample
      { engine; rss_bytes; heap_bytes; minor_words; major_words; minor_gcs;
        major_gcs; cpu; wall; open_nodes; nodes; max_depth; nps } ->
    [ ("engine", Str engine); ("rss_bytes", Int rss_bytes);
      ("heap_bytes", Int heap_bytes); ("minor_words", Float minor_words);
      ("major_words", Float major_words); ("minor_gcs", Int minor_gcs);
      ("major_gcs", Int major_gcs); ("cpu", Float cpu); ("wall", Float wall);
      ("open_nodes", Int open_nodes); ("nodes", Int nodes);
      ("max_depth", Int max_depth); ("nps", Float nps) ]
  | Domain_summary { engine; domain; processed; pushed; stolen; idle } ->
    [ ("engine", Str engine); ("domain", Int domain); ("processed", Int processed);
      ("pushed", Int pushed); ("stolen", Int stolen); ("idle", Int idle) ]
  | Ucb_decision
      { engine; depth; chosen; sample; plus_exploit; plus_explore;
        plus_visits; minus_exploit; minus_explore; minus_visits } ->
    [ ("engine", Str engine); ("depth", Int depth); ("chosen", Str chosen);
      ("sample", Int sample); ("plus_exploit", Float plus_exploit);
      ("plus_explore", Float plus_explore); ("plus_visits", Int plus_visits);
      ("minus_exploit", Float minus_exploit); ("minus_explore", Float minus_explore);
      ("minus_visits", Int minus_visits) ]
  | Branch_decision
      { engine; depth; kind; choice; score; runner_up; runner_up_score;
        candidates; sample } ->
    [ ("engine", Str engine); ("depth", Int depth); ("kind", Str kind);
      ("choice", Int choice); ("score", Float score); ("runner_up", Int runner_up);
      ("runner_up_score", Float runner_up_score); ("candidates", Int candidates);
      ("sample", Int sample) ]
  | Frontier_decision { engine; depth; priority; runner_up; frontier; sample } ->
    [ ("engine", Str engine); ("depth", Int depth); ("priority", Float priority);
      ("runner_up", Float runner_up); ("frontier", Int frontier);
      ("sample", Int sample) ]

let to_json { seq; t; domain; event } =
  let buf = Buffer.create 128 in
  Printf.bprintf buf "{\"seq\":%d,\"t\":%.6f,\"ev\":" seq t;
  Json.add buf (Str (name event));
  (* The envelope domain tag rides right after the discriminator.  A
     [domain_summary] event describes a domain in its own field of the
     same name, so the envelope tag is suppressed there to keep the
     object's keys unique; sequential traces (tag [None]) are
     byte-for-byte what the pre-parallelism encoder produced. *)
  (match (domain, event) with
   | Some _, Domain_summary _ | None, _ -> ()
   | Some d, _ -> Printf.bprintf buf ",\"domain\":%d" d);
  Json.add_members buf (fields event);
  Buffer.add_char buf '}';
  Buffer.contents buf

exception Bad of string

let of_json ?(source = "<string>") ?(line = 1) text =
  let malformed (e : Parse_error.t) =
    Error (Parse_error.to_string { e with msg = "malformed event: " ^ e.msg })
  in
  try
    let json = Json.of_string ~source ~line text in
    let get conv k =
      match Json.member k json with
      | None -> raise (Bad ("missing field " ^ k))
      | Some v ->
        (match conv v with Some x -> x | None -> raise (Bad (k ^ ": wrong type")))
    in
    let s = get Json.as_string
    and i = get Json.as_int
    and f = get Json.as_float
    and b = get Json.as_bool in
    let event =
      match s "ev" with
      | "run_started" -> Run_started { engine = s "engine"; instance = s "instance" }
      | "run_finished" ->
        Run_finished
          { engine = s "engine"; instance = s "instance"; verdict = s "verdict";
            calls = i "calls"; nodes = i "nodes"; max_depth = i "max_depth";
            wall = f "wall" }
      | "node_selected" ->
        Node_selected { engine = s "engine"; depth = i "depth"; ucb = f "ucb" }
      | "node_evaluated" ->
        Node_evaluated
          { engine = s "engine"; depth = i "depth"; gamma = s "gamma";
            phat = f "phat"; reward = f "reward" }
      | "backprop" ->
        Backprop
          { engine = s "engine"; depth = i "depth"; reward = f "reward";
            size = i "size" }
      | "frontier_pop" ->
        Frontier_pop
          { engine = s "engine"; depth = i "depth"; frontier = i "frontier";
            priority = f "priority" }
      | "exact_leaf" ->
        Exact_leaf { engine = s "engine"; depth = i "depth"; verified = b "verified" }
      | "bound_computed" ->
        Bound_computed
          { appver = s "appver"; depth = i "depth"; phat = f "phat";
            elapsed = f "elapsed" }
      | "bound_reuse" ->
        Bound_reuse
          { appver = s "appver"; depth = i "depth"; from_layer = i "from_layer";
            layers_skipped = i "layers_skipped"; clamps = i "clamps" }
      | "lp_solved" ->
        Lp_solved
          { vars = i "vars"; rows = i "rows"; status = s "status";
            elapsed = f "elapsed" }
      | "lp_warm" ->
        Lp_warm
          { depth = i "depth"; rows = i "rows"; hit = b "hit";
            pivots = i "pivots"; fallback = s "fallback";
            elapsed = f "elapsed" }
      | "attack_tried" ->
        Attack_tried
          { attack = s "attack"; success = b "success"; elapsed = f "elapsed" }
      | "verdict_reached" ->
        Verdict_reached
          { engine = s "engine"; verdict = s "verdict"; elapsed = f "elapsed" }
      | "resource_sample" ->
        Resource_sample
          { engine = s "engine"; rss_bytes = i "rss_bytes";
            heap_bytes = i "heap_bytes"; minor_words = f "minor_words";
            major_words = f "major_words"; minor_gcs = i "minor_gcs";
            major_gcs = i "major_gcs"; cpu = f "cpu"; wall = f "wall";
            open_nodes = i "open_nodes"; nodes = i "nodes";
            max_depth = i "max_depth"; nps = f "nps" }
      | "domain_summary" ->
        Domain_summary
          { engine = s "engine"; domain = i "domain"; processed = i "processed";
            pushed = i "pushed"; stolen = i "stolen"; idle = i "idle" }
      | "ucb_decision" ->
        Ucb_decision
          { engine = s "engine"; depth = i "depth"; chosen = s "chosen";
            sample = i "sample"; plus_exploit = f "plus_exploit";
            plus_explore = f "plus_explore"; plus_visits = i "plus_visits";
            minus_exploit = f "minus_exploit"; minus_explore = f "minus_explore";
            minus_visits = i "minus_visits" }
      | "branch_decision" ->
        Branch_decision
          { engine = s "engine"; depth = i "depth"; kind = s "kind";
            choice = i "choice"; score = f "score"; runner_up = i "runner_up";
            runner_up_score = f "runner_up_score"; candidates = i "candidates";
            sample = i "sample" }
      | "frontier_decision" ->
        Frontier_decision
          { engine = s "engine"; depth = i "depth"; priority = f "priority";
            runner_up = f "runner_up"; frontier = i "frontier";
            sample = i "sample" }
      | other -> raise (Bad ("unknown event " ^ other))
    in
    let domain =
      (* "domain" on a domain_summary line is the event's own field *)
      match event with
      | Domain_summary _ -> None
      | _ -> Option.bind (Json.member "domain" json) Json.as_int
    in
    Ok { seq = i "seq"; t = f "t"; domain; event }
  with
  | Bad msg -> malformed { source; pos = Line { line; col = 1 }; token = ""; msg }
  | Parse_error.Error e -> malformed e

(* nan equals nan, so JSONL round-trips can be checked *)
let equal a b =
  let same (k, x) (k', y) =
    String.equal k k'
    &&
    match (x, y) with
    | Json.Float x, Json.Float y -> (Float.is_nan x && Float.is_nan y) || x = y
    | x, y -> x = y
  in
  a.seq = b.seq && a.domain = b.domain
  && same ("t", Float a.t) ("t", Float b.t)
  && String.equal (name a.event) (name b.event)
  && List.equal same (fields a.event) (fields b.event)

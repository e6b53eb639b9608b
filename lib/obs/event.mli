(** Typed trace events emitted by the verification stack.

    Every observable action in a run — node evaluations and selections in
    ABONN, frontier pops in the BaB baselines, AppVer bound computations,
    LP solves, attack attempts and engine verdicts — is described by one
    constructor of {!t}.  Events carry only plain strings / ints / floats
    so this library sits at the very bottom of the dependency graph and
    every layer above can emit without cycles.

    The JSONL wire format (one flat JSON object per line, a ["ev"]
    discriminator field, non-finite floats encoded as the strings
    ["inf"] / ["-inf"] / ["nan"]) is documented in [docs/TRACE_SCHEMA.md];
    {!to_json} and {!of_json} are exact inverses for every event. *)

type t =
  | Run_started of { engine : string; instance : string }
      (** An experiment-harness run of [engine] on [instance] begins. *)
  | Run_finished of {
      engine : string;
      instance : string;
      verdict : string;
      calls : int;
      nodes : int;
      max_depth : int;
      wall : float;
    }  (** Harness run completed, with the final statistics. *)
  | Node_selected of { engine : string; depth : int; ucb : float }
      (** MCTS descent chose the child at [depth]; [ucb] is its UCB1
          score ([nan] under the uniform-random ablation). *)
  | Node_evaluated of {
      engine : string;
      depth : int;
      gamma : string;
      phat : float;
      reward : float;
    }  (** A fresh BaB node Γ received an AppVer call; [reward] is its
          Def. 1 potentiality. *)
  | Backprop of { engine : string; depth : int; reward : float; size : int }
      (** Reward/size refresh of an interior node on the way back up. *)
  | Frontier_pop of {
      engine : string;
      depth : int;
      frontier : int;
      priority : float;
    }  (** A baseline engine popped a node; [frontier] is the queue/heap
          size after the pop, [priority] the heap key ([nan] for FIFO). *)
  | Exact_leaf of { engine : string; depth : int; verified : bool }
      (** A fully-stabilised leaf was decided exactly under the node's
          own bounds (one small LP per property row). *)
  | Bound_computed of {
      appver : string;
      depth : int;
      phat : float;
      elapsed : float;
    }  (** One approximate-verifier bound computation. *)
  | Bound_reuse of {
      appver : string;
      depth : int;
      from_layer : int;
      layers_skipped : int;
      clamps : int;
    }  (** A warm-started bound computation reused a parent node's
          incremental state: layers [< from_layer] were shared verbatim
          ([layers_skipped] of them) and [clamps] child bounds were
          tightened by intersection with the parent's.  Always emitted
          immediately after the [bound_computed] of the same call. *)
  | Lp_solved of { vars : int; rows : int; status : string; elapsed : float }
      (** One simplex solve ([status] ∈ optimal / infeasible / unbounded /
          pivot_limit). *)
  | Lp_warm of {
      depth : int;  (** BaB depth of the node being bounded *)
      rows : int;  (** property rows resolved by this verifier call *)
      hit : bool;  (** a compatible parent basis was found in the cache *)
      pivots : int;  (** simplex pivots spent across all warm solves *)
      fallback : string;
          (** non-empty when the warm path degraded to a cold solve:
              the [Boxlp.Warm_fallback] reason, or ["no-parent"] *)
      elapsed : float;
    }
      (** One warm-started LP verifier call (DESIGN.md §13).  Annotation
          event: summaries and tree reconstruction ignore it. *)
  | Attack_tried of { attack : string; success : bool; elapsed : float }
      (** One adversarial-attack attempt. *)
  | Verdict_reached of { engine : string; verdict : string; elapsed : float }
      (** An engine terminated with [verdict] after [elapsed] seconds. *)
  | Resource_sample of {
      engine : string;
      rss_bytes : int;  (** resident set size ([Resource.rss_bytes]) *)
      heap_bytes : int;  (** OCaml major-heap size *)
      minor_words : float;  (** [Gc.quick_stat] cumulative minor words *)
      major_words : float;  (** cumulative major words *)
      minor_gcs : int;  (** minor collections so far *)
      major_gcs : int;  (** major collections so far *)
      cpu : float;  (** process CPU seconds since the sampler started *)
      wall : float;  (** wall seconds since the sampler started *)
      open_nodes : int;
          (** frontier size (queue/heap length); [0] for engines with no
              explicit frontier (ABONN's implicit MCTS tree) *)
      nodes : int;  (** BaB nodes materialised so far *)
      max_depth : int;  (** deepest node so far *)
      nps : float;  (** nodes/second over the last sampling window *)
    }
      (** Periodic runtime-resource snapshot from {!Resource}, ticked by
          every engine's node-expansion loop while observability is on. *)
  | Domain_summary of {
      engine : string;
      domain : int;  (** the worker this record describes *)
      processed : int;  (** work items this domain expanded *)
      pushed : int;  (** children this domain scheduled *)
      stolen : int;  (** items this domain stole from siblings *)
      idle : int;  (** steal sweeps that found no work anywhere *)
    }
      (** Per-domain work attribution of a parallel ([--domains N > 1])
          BaB run, emitted once per worker when the pool drains (see
          docs/PARALLELISM.md and schema §2.14). *)
  | Ucb_decision of {
      engine : string;
      depth : int;  (** depth of the chosen child (= its [node_selected]) *)
      chosen : string;  (** ["+"] or ["-"]: which phase child won *)
      sample : int;  (** introspection sampling denominator [n] of 1/n *)
      plus_exploit : float;  (** [+]-child mean reward term of UCB1 *)
      plus_explore : float;  (** [+]-child [c·sqrt(2 ln N / n)] term *)
      plus_visits : int;  (** [+]-child subtree size (visit count) *)
      minus_exploit : float;
      minus_explore : float;
      minus_visits : int;
    }
      (** Introspection ([--introspect]): the full candidate picture of
          one MCTS descent step — both children's UCB1 scores decomposed
          into exploitation/exploration, immediately after the
          [node_selected] it explains.  Not emitted under the
          uniform-random ablation (there is no UCB to decompose). *)
  | Branch_decision of {
      engine : string;
      depth : int;  (** depth of the node being split *)
      kind : string;  (** ["relu"] (neuron index) or ["input"] (dimension) *)
      choice : int;  (** flat index of the chosen split *)
      score : float;  (** heuristic score of the winner *)
      runner_up : int;  (** best rejected candidate; [-1] if none *)
      runner_up_score : float;  (** its score; [nan] if none *)
      candidates : int;  (** number of candidates considered *)
      sample : int;  (** introspection sampling denominator *)
    }
      (** Introspection: one branching-heuristic decision — the winning
          split against the best rejected alternative, for every engine
          that splits (ReLU engines via [lib/bab/branching.ml],
          inputsplit via its dimension scan). *)
  | Frontier_decision of {
      engine : string;
      depth : int;  (** depth of the popped node *)
      priority : float;  (** heap key of the chosen (popped) node *)
      runner_up : float;  (** next-best priority left on the heap; [nan]
                              when the heap emptied *)
      frontier : int;  (** heap size after the pop *)
      sample : int;  (** introspection sampling denominator *)
    }
      (** Introspection: the frontier-priority picture of one best-first
          pop — chosen vs. best-rejected node — immediately after the
          [frontier_pop] it explains.  Sequential best-first only; a
          parallel pool has no global priority order to report. *)

type envelope = { seq : int; t : float; domain : int option; event : t }
(** What sinks receive: the event plus a per-trace sequence number
    (1-based, gap-free), seconds since the first sink was installed,
    and — for events emitted from a worker of a parallel run — the
    emitting domain's index.  [domain] is [None] in sequential runs
    (including [--domains 1]), keeping their JSON byte-identical to the
    pre-parallelism encoder; it is serialized as a ["domain"] field
    right after ["ev"] when present, except on [domain_summary] lines
    where the event's own ["domain"] field already names a domain. *)

val name : t -> string
(** Wire name of the constructor, e.g. ["node_evaluated"] — the value of
    the ["ev"] JSON field. *)

val to_json : envelope -> string
(** One JSON object, no trailing newline. *)

val of_json : string -> (envelope, string) result
(** Parse one line produced by {!to_json}.  [Error msg] on malformed
    input, unknown ["ev"], or missing fields. *)

val equal : envelope -> envelope -> bool
(** Structural equality treating [nan] as equal to [nan] (so JSONL
    round-trips can be checked). *)

(** {1 Flat-JSON helpers}

    The trace wire format is flat JSON objects of scalars; other
    line-oriented consumers in the repo (the run registry) reuse the
    same parser and string escaping instead of growing their own. *)

type field = S of string | I of int | F of float | B of bool

val parse_fields : string -> ((string * field) list, string) result
(** Parse one flat JSON object into its fields, in source order.
    Accepts exactly the scalar conventions of the trace schema
    (strings, ints, floats, bools; no nesting). *)

val field_string : field -> string option
val field_int : field -> int option

val field_float : field -> float option
(** Ints widen to floats; the strings ["inf"]/["-inf"]/["nan"] decode to
    the corresponding non-finite floats (schema §1.2). *)

val json_string : string -> string
(** Quote and escape [s] exactly as the trace encoder does. *)

(* Tests for Abonn_util: Rng determinism and distribution sanity, Stats
   quantiles/histograms, Heap ordering, Budget accounting, Table layout,
   the JSON codec's wire form and positioned errors. *)

module Rng = Abonn_util.Rng
module Stats = Abonn_util.Stats
module Heap = Abonn_util.Heap
module Budget = Abonn_util.Budget
module Table = Abonn_util.Table
module Json = Abonn_util.Json
module Parse_error = Abonn_util.Parse_error

let check_float = Alcotest.(check (float 1e-9))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = Array.init 10 (fun _ -> Rng.int64 a) in
  let ys = Array.init 10 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "different seeds differ" true (xs <> ys)

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  let b = Rng.copy a in
  let x = Rng.int64 a in
  let y = Rng.int64 b in
  Alcotest.(check int64) "copy replays" x y

let test_rng_split_differs () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = Array.init 5 (fun _ -> Rng.int64 a) in
  let ys = Array.init 5 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "split stream differs" true (xs <> ys)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_uniform_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.uniform rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_uniform_mean () =
  let rng = Rng.create 11 in
  let xs = Array.init 10_000 (fun _ -> Rng.uniform rng) in
  let m = Stats.mean xs in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (m -. 0.5) < 0.02)

let test_rng_gaussian_moments () =
  let rng = Rng.create 13 in
  let xs = Array.init 20_000 (fun _ -> Rng.gaussian rng) in
  Alcotest.(check bool) "mean near 0" true (Float.abs (Stats.mean xs) < 0.05);
  Alcotest.(check bool) "stddev near 1" true (Float.abs (Stats.stddev xs -. 1.0) < 0.05)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 17 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

(* --- Stats --- *)

let test_stats_mean () = check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_stats_mean_empty () = check_float "empty mean" 0.0 (Stats.mean [||])

let test_stats_variance () =
  check_float "variance" 1.25 (Stats.variance [| 1.0; 2.0; 3.0; 4.0 |])

let test_stats_median_odd () = check_float "median odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |])

let test_stats_median_even () =
  check_float "median even" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |])

let test_stats_percentile_endpoints () =
  let xs = [| 10.0; 20.0; 30.0 |] in
  check_float "p0" 10.0 (Stats.percentile xs 0.0);
  check_float "p100" 30.0 (Stats.percentile xs 100.0)

let test_stats_percentile_interpolates () =
  let xs = [| 0.0; 10.0 |] in
  check_float "p25" 2.5 (Stats.percentile xs 25.0)

let test_stats_box_plot () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0; 100.0 |] in
  let b = Stats.box_plot xs in
  Alcotest.(check (list (float 1e-9))) "outliers" [ 100.0 ] b.Stats.outliers;
  Alcotest.(check bool) "median inside" true (b.Stats.q1 <= b.Stats.med && b.Stats.med <= b.Stats.q3)

let test_stats_histogram_counts () =
  let xs = [| 0.0; 0.5; 1.0; 1.5; 2.0 |] in
  let h = Stats.histogram ~bins:2 xs in
  Alcotest.(check int) "total count" 5 (Array.fold_left ( + ) 0 h.Stats.counts)

let test_stats_log_histogram () =
  let xs = [| 1.0; 10.0; 100.0; 1000.0 |] in
  let h = Stats.log_histogram ~bins:3 xs in
  Alcotest.(check int) "total count" 4 (Array.fold_left ( + ) 0 h.Stats.counts);
  Alcotest.(check int) "edges" 4 (Array.length h.Stats.edges)

let test_stats_log_histogram_rejects_nonpositive () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.log_histogram: non-positive datum") (fun () ->
      ignore (Stats.log_histogram [| 1.0; 0.0 |]))

let test_stats_geometric_mean () =
  check_float "geomean" 2.0 (Stats.geometric_mean [| 1.0; 2.0; 4.0 |])

(* --- Heap --- *)

let test_heap_orders () =
  let h = Heap.create () in
  List.iter (fun (k, v) -> Heap.push h k v) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  let popped = List.init 3 (fun _ -> match Heap.pop h with Some (_, v) -> v | None -> "?") in
  Alcotest.(check (list string)) "sorted pops" [ "a"; "b"; "c" ] popped

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h 1.0 v) [ "first"; "second"; "third" ];
  let popped = List.init 3 (fun _ -> match Heap.pop h with Some (_, v) -> v | None -> "?") in
  Alcotest.(check (list string)) "FIFO on ties" [ "first"; "second"; "third" ] popped

let test_heap_empty_pop () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check bool) "pop empty" true (Heap.pop h = None)

let test_heap_peek () =
  let h = Heap.create () in
  Heap.push h 5.0 "x";
  Heap.push h 2.0 "y";
  (match Heap.peek h with
   | Some (k, v) ->
     check_float "peek key" 2.0 k;
     Alcotest.(check string) "peek value" "y" v
   | None -> Alcotest.fail "peek on non-empty");
  Alcotest.(check int) "peek preserves" 2 (Heap.length h)

let test_heap_random_sorted =
  QCheck.Test.make ~name:"heap pops keys in sorted order" ~count:100
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.push h k ()) keys;
      let rec drain acc =
        match Heap.pop h with Some (k, ()) -> drain (k :: acc) | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort compare keys)

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h 1.0 "a";
  Heap.clear h;
  Alcotest.(check bool) "empty after clear" true (Heap.is_empty h)

(* --- Budget --- *)

let test_budget_calls () =
  let b = Budget.of_calls 3 in
  Alcotest.(check bool) "fresh" false (Budget.exhausted b);
  Budget.record_call b;
  Budget.record_call b;
  Alcotest.(check bool) "two calls" false (Budget.exhausted b);
  Budget.record_call b;
  Alcotest.(check bool) "three calls" true (Budget.exhausted b);
  Alcotest.(check int) "count" 3 (Budget.calls_used b)

let test_budget_unlimited () =
  let b = Budget.unlimited () in
  for _ = 1 to 1000 do Budget.record_call b done;
  Alcotest.(check bool) "never exhausts" false (Budget.exhausted b)

let test_budget_seconds () =
  let b = Budget.of_seconds 0.0 in
  Alcotest.(check bool) "instant timeout" true (Budget.exhausted b)

let test_budget_combine () =
  let b = Budget.combine ~calls:2 ~seconds:1000.0 () in
  Budget.record_call b;
  Budget.record_call b;
  Alcotest.(check bool) "calls trip first" true (Budget.exhausted b)

(* Regression (fuzz-generator audit): budgets with exactly zero remaining
   must be exhausted from birth — an engine that checks the budget before
   its first AppVer call must not get to make it. *)
let test_budget_zero_remaining () =
  Alcotest.(check bool) "of_calls 0 born exhausted" true (Budget.exhausted (Budget.of_calls 0));
  Alcotest.(check bool) "of_seconds 0 born exhausted" true
    (Budget.exhausted (Budget.of_seconds 0.0));
  Alcotest.(check bool) "combine zero seconds trips despite call headroom" true
    (Budget.exhausted (Budget.combine ~calls:1000 ~seconds:0.0 ()));
  Alcotest.(check bool) "negative limits clamp to zero" true
    (Budget.exhausted (Budget.of_calls (-3)) && Budget.exhausted (Budget.of_seconds (-1.0)));
  let b = Budget.of_calls 1 in
  Alcotest.(check bool) "one call of headroom" false (Budget.exhausted b);
  Budget.record_call b;
  Alcotest.(check bool) "inclusive at the limit" true (Budget.exhausted b)

(* --- Table --- *)

let test_table_render_shape () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "header + sep + 2 rows" 4 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check int) "equal widths" (String.length (List.hd lines)) (String.length l))
    lines

let test_table_pads_short_rows () =
  let s = Table.render ~header:[ "a"; "b"; "c" ] [ [ "1" ] ] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_table_bar () =
  Alcotest.(check string) "full bar" (String.make 10 '#') (Table.bar ~width:10 1.0 1.0);
  Alcotest.(check string) "half bar" (String.make 5 '#') (Table.bar ~width:10 0.5 1.0);
  Alcotest.(check string) "zero max" "" (Table.bar ~width:10 1.0 0.0)

let test_table_fmt_float () =
  Alcotest.(check string) "fixed" "3.14" (Table.fmt_float 3.14159);
  Alcotest.(check string) "inf" "inf" (Table.fmt_float infinity);
  Alcotest.(check string) "-inf" "-inf" (Table.fmt_float neg_infinity);
  Alcotest.(check string) "nan" "nan" (Table.fmt_float Float.nan)

(* Regression (fuzz-generator audit): [range] with reversed bounds used to
   draw from a *decreasing* affine map — values landed in (hi, lo] and
   downstream interval constructions silently inverted.  Bounds are now
   normalised, equal bounds are a point mass, and the stream advances
   exactly once per call either way. *)
let test_rng_range_reversed_and_equal () =
  let rng = Rng.create 91 in
  for _ = 1 to 500 do
    let v = Rng.range rng 2.0 (-1.0) in
    Alcotest.(check bool) "reversed bounds normalised" true (v >= -1.0 && v < 2.0)
  done;
  Alcotest.(check (float 0.0)) "equal bounds are a point" 3.5 (Rng.range rng 3.5 3.5);
  (* stream stability: a degenerate call consumes exactly one draw *)
  let a = Rng.create 17 and b = Rng.create 17 in
  ignore (Rng.range a 1.0 1.0);
  ignore (Rng.uniform b);
  Alcotest.(check int64) "advances once" (Rng.int64 a) (Rng.int64 b)

(* --- Json --- *)

let test_json_writer () =
  (* the trace encoder's escapes and non-finite floats, byte for byte *)
  Alcotest.(check string) "compact"
    {|{"s":"a\"b\\c\n\r\t\u0001é","i":-3,"f":0.5,"n":"nan","p":"inf","m":"-inf","b":[true,false,null],"o":{}}|}
    (Json.to_string
       (Obj
          [ ("s", Str "a\"b\\c\n\r\t\001é"); ("i", Int (-3)); ("f", Float 0.5);
            ("n", Float Float.nan); ("p", Float Float.infinity);
            ("m", Float Float.neg_infinity);
            ("b", Arr [ Bool true; Bool false; Null ]); ("o", Obj []) ]))

let test_json_reader () =
  let v =
    Json.of_string
      "\r\n { \"k\" :\t[1, 2.5e0, -0.0, \"\\u00e9\\ud83d\\ude00\\/\\b\\f\"] ,\n\"k\": null }  "
  in
  (match v with
   | Obj [ ("k", Arr [ Int 1; Float f; Float z; Str s ]); ("k", Null) ] ->
     check_float "float" 2.5 f;
     check_float "negative zero" 0.0 z;
     Alcotest.(check string) "escapes decode to UTF-8" "\xc3\xa9\xf0\x9f\x98\x80/\b\012" s
   | _ -> Alcotest.fail "unexpected tree");
  Alcotest.(check (option (float 0.0))) "first duplicate wins" None
    (Option.bind (Json.member "k" v) Json.as_float);
  List.iter
    (fun (text, f) ->
      Alcotest.(check (option (float 0.0))) text (Some f)
        (Json.as_float (Json.of_string text)))
    [ ("7", 7.0); ("\"inf\"", Float.infinity); ("\"-inf\"", Float.neg_infinity) ];
  Alcotest.(check bool) "nan" true
    (Float.is_nan (Option.get (Json.as_float (Json.of_string "\"nan\""))))

let test_json_errors () =
  let positioned text (line, col) msg =
    match Json.of_string ~source:"f.json" ~line:10 text with
    | _ -> Alcotest.failf "%S must not parse" text
    | exception Parse_error.Error e ->
      Alcotest.(check string) text
        (Printf.sprintf "f.json:%d:%d: %s" line col msg)
        (Parse_error.to_string { e with token = "" })
  in
  positioned "{\"a\": 1," (10, 9) "unexpected end of input";
  positioned "{\n  \"a\"  1}" (11, 8) "expected ':'";
  positioned "[1, 2] x" (10, 8) "expected the end of input";
  positioned "\"\\uZZZZ\"" (10, 2) "bad \\u escape";
  positioned "\"\\ud800x\"" (10, 2) "lone surrogate";
  positioned "\"\\q\"" (10, 2) "bad escape";
  positioned "\"abc" (10, 5) "unterminated string";
  positioned "nope" (10, 1) "invalid literal";
  positioned "1.2.3" (10, 1) "bad number"

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [ ( "util.rng",
      [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
        Alcotest.test_case "split differs" `Quick test_rng_split_differs;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
        Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
        Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
        Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "int rejects non-positive" `Quick test_rng_int_rejects_nonpositive;
        Alcotest.test_case "range reversed/equal bounds" `Quick test_rng_range_reversed_and_equal
      ] );
    ( "util.stats",
      [ Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "mean empty" `Quick test_stats_mean_empty;
        Alcotest.test_case "variance" `Quick test_stats_variance;
        Alcotest.test_case "median odd" `Quick test_stats_median_odd;
        Alcotest.test_case "median even" `Quick test_stats_median_even;
        Alcotest.test_case "percentile endpoints" `Quick test_stats_percentile_endpoints;
        Alcotest.test_case "percentile interpolates" `Quick test_stats_percentile_interpolates;
        Alcotest.test_case "box plot" `Quick test_stats_box_plot;
        Alcotest.test_case "histogram counts" `Quick test_stats_histogram_counts;
        Alcotest.test_case "log histogram" `Quick test_stats_log_histogram;
        Alcotest.test_case "log histogram rejects" `Quick test_stats_log_histogram_rejects_nonpositive;
        Alcotest.test_case "geometric mean" `Quick test_stats_geometric_mean
      ] );
    ( "util.heap",
      [ Alcotest.test_case "orders" `Quick test_heap_orders;
        Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
        Alcotest.test_case "empty pop" `Quick test_heap_empty_pop;
        Alcotest.test_case "peek" `Quick test_heap_peek;
        Alcotest.test_case "clear" `Quick test_heap_clear;
        qtest test_heap_random_sorted
      ] );
    ( "util.budget",
      [ Alcotest.test_case "calls" `Quick test_budget_calls;
        Alcotest.test_case "unlimited" `Quick test_budget_unlimited;
        Alcotest.test_case "seconds" `Quick test_budget_seconds;
        Alcotest.test_case "combine" `Quick test_budget_combine;
        Alcotest.test_case "zero remaining" `Quick test_budget_zero_remaining
      ] );
    ( "util.table",
      [ Alcotest.test_case "render shape" `Quick test_table_render_shape;
        Alcotest.test_case "pads short rows" `Quick test_table_pads_short_rows;
        Alcotest.test_case "bar" `Quick test_table_bar;
        Alcotest.test_case "fmt_float" `Quick test_table_fmt_float
      ] );
    ( "util.json",
      [ Alcotest.test_case "writer bytes" `Quick test_json_writer;
        Alcotest.test_case "reader" `Quick test_json_reader;
        Alcotest.test_case "positioned errors" `Quick test_json_errors
      ] )
  ]

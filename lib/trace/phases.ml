type span = { calls : int; total : float }

type t = {
  wall : float;
  domains : int;
  appver : (string * span) list;
  appver_total : span;
  lp : span;
  lp_in_appver : float;
  attack : (string * span) list;
  attack_total : span;
  overhead : float;
}

let of_events events =
  let run = Summary.of_events events and cells = Spans.of_events events in
  let sum keep =
    let calls, total = Spans.total keep cells in
    { calls; total }
  in
  let is prefix (k : Spans.key) = String.starts_with ~prefix k.phase in
  (* per-name totals of the phases under [prefix], sorted by name *)
  let by_name prefix =
    let n = String.length prefix in
    List.filter_map
      (fun (c : Spans.cell) -> if is prefix c.key then Some c.key.phase else None)
      cells
    |> List.sort_uniq String.compare
    |> List.map (fun ph ->
           (String.sub ph n (String.length ph - n), sum (fun k -> k.phase = ph)))
  in
  let appver_total = sum (is "appver.") and lp = sum (is "lp.") in
  let lp_in_appver = (sum (fun k -> k.nested && is "lp." k)).total in
  let attack_total = sum (fun k -> (not k.nested) && is "attack." k) in
  let capacity = Spans.capacity ~wall:run.Summary.wall ~domains:run.Summary.domains in
  let lp_outside = Float.max 0.0 (lp.total -. lp_in_appver) in
  { wall = run.Summary.wall;
    domains = run.Summary.domains;
    appver = by_name "appver.";
    appver_total;
    lp;
    lp_in_appver;
    attack = by_name "attack.";
    attack_total;
    overhead =
      Float.max 0.0 (capacity -. appver_total.total -. lp_outside -. attack_total.total) }

let to_string p =
  let buf = Buffer.create 512 in
  let capacity = Spans.capacity ~wall:p.wall ~domains:p.domains in
  let pct d = if capacity > 0.0 then 100.0 *. d /. capacity else 0.0 in
  let line name calls total =
    Buffer.add_string buf
      (Printf.sprintf "  %-24s %8s %12.6f %7.1f%%\n" name
         (if calls >= 0 then string_of_int calls else "")
         total (pct total))
  in
  Buffer.add_string buf
    (Printf.sprintf "phase breakdown (wall %.6f s%s)\n" p.wall
       (Spans.domains_suffix p.domains));
  Buffer.add_string buf
    (Printf.sprintf "  %-24s %8s %12s %8s\n" "phase" "calls" "seconds" "wall");
  List.iter (fun (name, s) -> line ("appver." ^ name) s.calls s.total) p.appver;
  line "appver (total)" p.appver_total.calls p.appver_total.total;
  let lp_outside = Float.max 0.0 (p.lp.total -. p.lp_in_appver) in
  line "lp (exact/outside)" (-1) lp_outside;
  if p.lp_in_appver > 0.0 then
    Buffer.add_string buf
      (Printf.sprintf "  %-24s %8s %12.6f (inside appver, not re-charged)\n" "lp (in appver)"
         "" p.lp_in_appver);
  List.iter (fun (name, s) -> line ("attack." ^ name) s.calls s.total) p.attack;
  line "attack (top-level)" p.attack_total.calls p.attack_total.total;
  line "search overhead" (-1) p.overhead;
  Buffer.contents buf

type t = {
  case_index : int;
  case_seed : int;
  family : Oracle.family;
  check : string;
  detail : string;
  descr : string;
  relus : int;
  relus_minimized : int option;
  repro : string option;
  roundtrip_ok : bool option;
}

let to_json f =
  let opt k conv = Option.fold ~none:[] ~some:(fun v -> [ (k, conv v) ]) in
  Abonn_util.Json.(
    to_string
      (Obj
         ([ ("ev", Str "fuzz_finding"); ("case", Int f.case_index);
            ("seed", Int f.case_seed); ("family", Str (Oracle.family_name f.family));
            ("check", Str f.check); ("detail", Str f.detail); ("descr", Str f.descr);
            ("relus", Int f.relus) ]
         @ opt "relus_minimized" (fun n -> Int n) f.relus_minimized
         @ opt "repro" (fun p -> Str p) f.repro
         @ opt "roundtrip_ok" (fun b -> Bool b) f.roundtrip_ok)))

let pp fmt f =
  Format.fprintf fmt "@[<v 2>FINDING [%s] %s (case %d, seed %d)@,%s@,case: %s (%d relus)"
    (Oracle.family_name f.family) f.check f.case_index f.case_seed f.detail f.descr f.relus;
  (match f.relus_minimized with
   | Some n -> Format.fprintf fmt "@,minimized to %d relus" n
   | None -> ());
  (match f.repro with
   | Some p -> Format.fprintf fmt "@,repro: %s" p
   | None -> ());
  (match f.roundtrip_ok with
   | Some ok -> Format.fprintf fmt "@,round-trip: %s" (if ok then "ok" else "FAILED")
   | None -> ());
  Format.fprintf fmt "@]"

module Duration = Aved_units.Duration
module Money = Aved_units.Money
module Telemetry = Aved_telemetry.Telemetry

type fate =
  | Incumbent
  | Dominated of { by : string }
  | Over_downtime_budget of { excess : Duration.t }
  | Over_cost_cap of { excess : Money.t }
  | Rejected_by_model of { reason : string }

type record = {
  tier : string;
  design : Aved_model.Design.tier_design;
  cost : Money.t;
  downtime : Duration.t option;
  execution_time : Duration.t option;
  fate : fate;
}

type ring = {
  buf : record option array;
  mutable next : int;  (* slot of the next write *)
  mutable size : int;
}

type t = {
  ring_capacity : int;
  mutex : Mutex.t;
  rings : (string, ring) Hashtbl.t;
  mutable noted : int;
  mutable dropped : int;
}

let create ?(capacity = 512) () =
  if capacity < 1 then invalid_arg "Provenance.create: capacity must be >= 1";
  {
    ring_capacity = capacity;
    mutex = Mutex.create ();
    rings = Hashtbl.create 8;
    noted = 0;
    dropped = 0;
  }

let capacity t = t.ring_capacity

(* The ambient trail, mirroring the telemetry registry: at most one
   installed, and [note] is a one-branch no-op without one. *)
let ambient : t option Atomic.t = Atomic.make None

let install t = Atomic.set ambient (Some t)
let uninstall () = Atomic.set ambient None
let enabled () = Atomic.get ambient <> None

let with_trail t f =
  install t;
  Fun.protect ~finally:uninstall f

let fate_label = function
  | Incumbent -> "incumbent"
  | Dominated _ -> "dominated"
  | Over_downtime_budget _ -> "over_downtime_budget"
  | Over_cost_cap _ -> "over_cost_cap"
  | Rejected_by_model _ -> "rejected_by_model"

let records_noted = Telemetry.Counter.make "explain.records.noted"
let records_dropped = Telemetry.Counter.make "explain.records.dropped"

let append t record =
  Mutex.lock t.mutex;
  let ring =
    match Hashtbl.find_opt t.rings record.tier with
    | Some r -> r
    | None ->
        let r = { buf = Array.make t.ring_capacity None; next = 0; size = 0 } in
        Hashtbl.add t.rings record.tier r;
        r
  in
  let overwrote = ring.size = t.ring_capacity in
  ring.buf.(ring.next) <- Some record;
  ring.next <- (ring.next + 1) mod t.ring_capacity;
  if overwrote then t.dropped <- t.dropped + 1
  else ring.size <- ring.size + 1;
  t.noted <- t.noted + 1;
  Mutex.unlock t.mutex;
  if Telemetry.enabled () then begin
    Telemetry.Counter.incr records_noted;
    if overwrote then Telemetry.Counter.incr records_dropped;
    Telemetry.Counter.incr
      (Telemetry.Counter.make ("explain.fate." ^ fate_label record.fate))
  end

let note thunk =
  match Atomic.get ambient with
  | None -> ()
  | Some t -> append t (thunk ())

let tiers t =
  Mutex.lock t.mutex;
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) t.rings [] in
  Mutex.unlock t.mutex;
  List.sort String.compare names

let records t ~tier =
  Mutex.lock t.mutex;
  let result =
    match Hashtbl.find_opt t.rings tier with
    | None -> []
    | Some ring ->
        let start =
          if ring.size = t.ring_capacity then ring.next else 0
        in
        List.init ring.size (fun i ->
            match ring.buf.((start + i) mod t.ring_capacity) with
            | Some r -> r
            | None -> assert false)
  in
  Mutex.unlock t.mutex;
  result

let noted t =
  Mutex.lock t.mutex;
  let n = t.noted in
  Mutex.unlock t.mutex;
  n

let dropped t =
  Mutex.lock t.mutex;
  let n = t.dropped in
  Mutex.unlock t.mutex;
  n

let describe design =
  Format.asprintf "%a" Aved_model.Design.pp_tier design

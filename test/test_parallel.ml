(* The multicore search layer: work-pool semantics, shared-incumbent
   behavior, memoized evaluation, and — the load-bearing contract —
   bit-identical search results at any [jobs] setting. *)

module Duration = Aved_units.Duration
module Money = Aved_units.Money
module Pool = Aved_parallel.Pool
module Incumbent = Aved_parallel.Incumbent
module Search_config = Aved_search.Search_config
module Candidate = Aved_search.Candidate
module Tier_search = Aved_search.Tier_search
module Job_search = Aved_search.Job_search
module Service_search = Aved_search.Service_search
open Aved_model

let infra () = Aved.Experiments.infrastructure ()
let app_tier () = Aved.Experiments.application_tier ()

(* ------------------------------------------------------------------ *)
(* Pool semantics *)

let test_map_preserves_order () =
  Pool.run ~jobs:4 @@ fun pool ->
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "results in submission order"
    (List.map (fun x -> x * x) xs)
    (Pool.map pool (fun x -> x * x) xs)

let test_map_sequential_fallback () =
  Pool.run ~jobs:1 @@ fun pool ->
  Alcotest.(check int) "jobs" 1 (Pool.jobs pool);
  Alcotest.(check (list int))
    "plain map" [ 2; 4; 6 ]
    (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ])

let test_map_empty_and_singleton () =
  Pool.run ~jobs:3 @@ fun pool ->
  Alcotest.(check (list int)) "empty" [] (Pool.map pool Fun.id []);
  Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.map pool Fun.id [ 7 ])

let test_nested_maps () =
  (* Tasks submitting sub-tasks to the same pool must not deadlock:
     workers (and the caller) run queued work while waiting. *)
  Pool.run ~jobs:4 @@ fun pool ->
  let rows =
    Pool.map pool
      (fun i -> Pool.map pool (fun j -> (10 * i) + j) [ 0; 1; 2 ])
      (List.init 8 Fun.id)
  in
  Alcotest.(check (list (list int)))
    "nested results"
    (List.init 8 (fun i -> List.map (fun j -> (10 * i) + j) [ 0; 1; 2 ]))
    rows

let test_exception_propagates () =
  Pool.run ~jobs:4 @@ fun pool ->
  match
    Pool.map pool
      (fun x -> if x mod 3 = 0 then failwith (string_of_int x) else x)
      (List.init 10 succ)
  with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
      (* The smallest-index failure wins, regardless of schedule. *)
      Alcotest.(check string) "first failing task" "3" msg

let test_pool_reusable_after_exception () =
  Pool.run ~jobs:2 @@ fun pool ->
  (try ignore (Pool.map pool (fun () -> failwith "boom") [ () ])
   with Failure _ -> ());
  Alcotest.(check (list int))
    "pool still works" [ 1; 2 ]
    (Pool.map pool Fun.id [ 1; 2 ])

let test_stress_many_small_tasks () =
  Pool.run ~jobs:4 @@ fun pool ->
  let n = 5000 in
  let total =
    List.fold_left ( + ) 0 (Pool.map pool Fun.id (List.init n Fun.id))
  in
  Alcotest.(check int) "sum" (n * (n - 1) / 2) total

let test_incumbent_monotone () =
  let inc = Incumbent.create () in
  Alcotest.(check bool) "starts at infinity" true (Incumbent.get inc = infinity);
  Incumbent.propose inc 10.;
  Incumbent.propose inc 12.;
  Alcotest.(check (float 0.)) "keeps the minimum" 10. (Incumbent.get inc);
  Incumbent.propose inc 7.;
  Alcotest.(check (float 0.)) "improves" 7. (Incumbent.get inc)

(* ------------------------------------------------------------------ *)
(* Memoized evaluation *)

let gen_small_model =
  let open QCheck2.Gen in
  let* n = int_range 1 4 in
  let* s = int_range 0 2 in
  let* m = int_range 1 n in
  let* tier_scope = bool in
  let* class_count = int_range 1 2 in
  let* raw =
    list_repeat class_count
      (triple (float_range 2. 800.) (float_range 0.05 48.)
         (float_range 0.5 30.))
  in
  let classes =
    List.mapi
      (fun i (mtbf_days, mttr_hours, failover_minutes) ->
        let mttr = Duration.of_hours mttr_hours in
        let failover = Duration.of_minutes failover_minutes in
        {
          Aved_avail.Tier_model.label = Printf.sprintf "c%d" i;
          rate = 1. /. Duration.seconds (Duration.of_days mtbf_days);
          mttr;
          failover_time = failover;
          failover_considered = s > 0 && Duration.compare mttr failover > 0;
          repair_mechanism = None;
        })
      raw
  in
  return
    {
      Aved_avail.Tier_model.tier_name = "memo";
      n_active = n;
      n_min = (if tier_scope then n else m);
      n_spare = s;
      failure_scope =
        (if tier_scope then Service.Tier_scope else Service.Resource_scope);
      classes;
      loss_window = None;
      effective_performance = 100.;
    }

let test_memo_equals_uncached () =
  let models =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 2026 |]) ~n:1000
      gen_small_model
  in
  let cache = Aved_avail.Memo.create () in
  List.iter
    (fun m ->
      let direct = Aved_avail.Analytic.downtime_fraction m in
      let cached = Aved_avail.Memo.downtime_fraction cache m in
      if cached <> direct then
        Alcotest.failf "memo %.17e <> direct %.17e" cached direct)
    models

let test_memo_hits () =
  let cache = Aved_avail.Memo.create () in
  let m =
    QCheck2.Gen.generate1 ~rand:(Random.State.make [| 7 |]) gen_small_model
  in
  ignore (Aved_avail.Memo.downtime_fraction cache m);
  ignore (Aved_avail.Memo.downtime_fraction cache m);
  (* The key ignores labels: a renamed model must still hit. *)
  ignore
    (Aved_avail.Memo.downtime_fraction cache
       { m with Aved_avail.Tier_model.tier_name = "renamed" });
  let hits, misses = Aved_avail.Memo.stats cache in
  Alcotest.(check int) "misses" 1 misses;
  Alcotest.(check int) "hits" 2 hits

(* The LRU bound: a capacity-k table holds at most k entries, evicts
   the least-recently-used key first, and recomputed evictees still
   agree with the uncached engine (eviction forgets, never corrupts). *)
let test_memo_lru_bound () =
  let models =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 404 |]) ~n:64
      gen_small_model
  in
  let cache = Aved_avail.Memo.create ~capacity:16 () in
  List.iter (fun m -> ignore (Aved_avail.Memo.downtime_fraction cache m)) models;
  Alcotest.(check bool) "bounded" true (Aved_avail.Memo.length cache <= 16);
  Alcotest.(check int) "capacity" 16 (Aved_avail.Memo.capacity cache);
  Alcotest.(check bool) "evicted" true (Aved_avail.Memo.evictions cache > 0);
  List.iter
    (fun m ->
      Alcotest.(check (float 0.))
        "recompute agrees"
        (Aved_avail.Analytic.downtime_fraction m)
        (Aved_avail.Memo.downtime_fraction cache m))
    models

let test_memo_lru_order () =
  (* Distinct keys via n_active; capacity 2. Touching the older entry
     promotes it, so the untouched one is evicted first. *)
  let base =
    QCheck2.Gen.generate1 ~rand:(Random.State.make [| 11 |]) gen_small_model
  in
  let model n =
    {
      base with
      Aved_avail.Tier_model.n_active = n;
      n_min = 1;
      n_spare = 0;
      failure_scope = Service.Resource_scope;
    }
  in
  let cache = Aved_avail.Memo.create ~capacity:2 () in
  let touch n = ignore (Aved_avail.Memo.downtime_fraction cache (model n)) in
  touch 1;
  touch 2;
  touch 1 (* promote 1: LRU is now 2 *);
  touch 3 (* evicts 2 *);
  touch 1 (* still cached: hit *);
  let hits, misses = Aved_avail.Memo.stats cache in
  Alcotest.(check int) "misses" 3 misses;
  Alcotest.(check int) "hits" 2 hits;
  Alcotest.(check int) "one eviction" 1 (Aved_avail.Memo.evictions cache);
  touch 2 (* was evicted: a miss again *);
  let _, misses = Aved_avail.Memo.stats cache in
  Alcotest.(check int) "evicted key misses" 4 misses

(* ------------------------------------------------------------------ *)
(* The bounded admission queue *)

module Bounded_queue = Aved_parallel.Bounded_queue

let test_queue_fifo () =
  let q = Bounded_queue.create ~capacity:4 in
  List.iter
    (fun i -> Alcotest.(check bool) "push" true (Bounded_queue.try_push q i))
    [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Bounded_queue.length q);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Bounded_queue.pop q);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Bounded_queue.pop q);
  Alcotest.(check (option int)) "fifo 3" (Some 3) (Bounded_queue.pop q)

let test_queue_sheds_when_full () =
  let q = Bounded_queue.create ~capacity:2 in
  Alcotest.(check bool) "1 fits" true (Bounded_queue.try_push q 1);
  Alcotest.(check bool) "2 fits" true (Bounded_queue.try_push q 2);
  Alcotest.(check bool) "3 refused" false (Bounded_queue.try_push q 3);
  ignore (Bounded_queue.pop q);
  Alcotest.(check bool) "slot freed" true (Bounded_queue.try_push q 3)

let test_queue_close_drains () =
  let q = Bounded_queue.create ~capacity:4 in
  ignore (Bounded_queue.try_push q 1);
  ignore (Bounded_queue.try_push q 2);
  Bounded_queue.close q;
  Alcotest.(check bool) "closed refuses" false (Bounded_queue.try_push q 3);
  Alcotest.(check bool) "reports closed" true (Bounded_queue.closed q);
  Alcotest.(check (option int)) "delivers 1" (Some 1) (Bounded_queue.pop q);
  Alcotest.(check (option int)) "delivers 2" (Some 2) (Bounded_queue.pop q);
  Alcotest.(check (option int)) "then none" None (Bounded_queue.pop q)

let test_queue_close_wakes_consumers () =
  let q : int Bounded_queue.t = Bounded_queue.create ~capacity:1 in
  let results = Array.make 2 (Some 0) in
  let consumers =
    Array.init 2 (fun i ->
        Thread.create (fun () -> results.(i) <- Bounded_queue.pop q) ())
  in
  Thread.delay 0.05;
  Bounded_queue.close q;
  Array.iter Thread.join consumers;
  Array.iter
    (fun r -> Alcotest.(check (option int)) "woken with None" None r)
    results

let test_memoized_engine_in_search () =
  let plain = Search_config.default in
  let memo = Search_config.with_memo Search_config.default in
  let a =
    Tier_search.optimal plain (infra ()) ~tier:(app_tier ()) ~demand:1000.
      ~max_downtime:(Duration.of_minutes 100.)
  in
  let b =
    Tier_search.optimal memo (infra ()) ~tier:(app_tier ()) ~demand:1000.
      ~max_downtime:(Duration.of_minutes 100.)
  in
  match (a, b) with
  | Some a, Some b ->
      Alcotest.(check bool) "same design" true
        (Design.compare_tier a.Candidate.design b.Candidate.design = 0);
      Alcotest.(check (float 0.))
        "same downtime" a.Candidate.downtime_fraction
        b.Candidate.downtime_fraction
  | _ -> Alcotest.fail "searches disagree on feasibility"

(* ------------------------------------------------------------------ *)
(* jobs=1 vs jobs=4 determinism *)

let config_with_jobs jobs = Search_config.with_jobs jobs Search_config.default

let check_candidate_equal what (a : Candidate.t) (b : Candidate.t) =
  Alcotest.(check bool)
    (what ^ ": same design")
    true
    (Design.compare_tier a.design b.design = 0);
  Alcotest.(check (float 0.))
    (what ^ ": same cost")
    (Money.to_float a.cost) (Money.to_float b.cost);
  Alcotest.(check (float 0.))
    (what ^ ": same downtime")
    a.downtime_fraction b.downtime_fraction

let test_tier_optimal_deterministic () =
  List.iter
    (fun demand ->
      let run jobs =
        Tier_search.optimal (config_with_jobs jobs) (infra ())
          ~tier:(app_tier ()) ~demand
          ~max_downtime:(Duration.of_minutes 100.)
      in
      match (run 1, run 4) with
      | Some a, Some b ->
          check_candidate_equal (Printf.sprintf "demand %g" demand) a b
      | None, None -> ()
      | _ -> Alcotest.failf "feasibility differs at demand %g" demand)
    [ 400.; 1000.; 2600. ]

let test_tier_frontier_deterministic () =
  List.iter
    (fun demand ->
      let run jobs =
        Tier_search.frontier (config_with_jobs jobs) (infra ())
          ~tier:(app_tier ()) ~demand
      in
      let a = run 1 and b = run 4 in
      Alcotest.(check int)
        (Printf.sprintf "frontier size at %g" demand)
        (List.length a) (List.length b);
      List.iter2
        (check_candidate_equal (Printf.sprintf "frontier point at %g" demand))
        a b)
    [ 400.; 1000. ]

let test_job_optimal_deterministic () =
  let infra = Aved.Experiments.infrastructure_bronze () in
  let tier = Aved.Experiments.computation_tier () in
  List.iter
    (fun hours ->
      let run jobs =
        Job_search.optimal
          (Search_config.with_jobs jobs Aved.Experiments.fig7_config)
          infra ~tier ~job_size:Aved.Experiments.scientific_job_size
          ~max_time:(Duration.of_hours hours)
      in
      match (run 1, run 4) with
      | Some a, Some b ->
          Alcotest.(check bool)
            (Printf.sprintf "same design at %gh" hours)
            true
            (Design.compare_tier a.Job_search.design b.Job_search.design = 0);
          Alcotest.(check (float 0.))
            (Printf.sprintf "same cost at %gh" hours)
            (Money.to_float a.Job_search.cost)
            (Money.to_float b.Job_search.cost);
          Alcotest.(check (float 0.))
            (Printf.sprintf "same time at %gh" hours)
            (Duration.seconds a.Job_search.execution_time)
            (Duration.seconds b.Job_search.execution_time)
      | None, None -> ()
      | _ -> Alcotest.failf "feasibility differs at %gh" hours)
    [ 24.; 100. ]

let test_service_design_deterministic () =
  let infra = infra () in
  let service = Aved.Experiments.ecommerce () in
  let requirements =
    Requirements.enterprise ~throughput:1000.
      ~max_annual_downtime:(Duration.of_minutes 100.)
  in
  let run jobs =
    Service_search.design (config_with_jobs jobs) infra service requirements
  in
  match (run 1, run 4) with
  | Some a, Some b ->
      Alcotest.(check (float 0.))
        "same cost"
        (Money.to_float a.Service_search.cost)
        (Money.to_float b.Service_search.cost);
      List.iter2
        (fun ta tb ->
          Alcotest.(check bool) "same tier design" true
            (Design.compare_tier ta tb = 0))
        a.Service_search.design.Design.tiers
        b.Service_search.design.Design.tiers
  | None, None -> Alcotest.fail "scenario unexpectedly infeasible"
  | _ -> Alcotest.fail "feasibility differs"

(* No shipped spec uses a geometric or explicit nActive range: the
   application tier and the scientific tier again, restricted to
   powers of two and to an explicit list. *)
let odd_ranges_service =
  {|application=odd_ranges jobsize=10000
tier=application
  resource=rC sizing=dynamic failurescope=resource nActive=[1-1024,*2]
    performance=200*n
  resource=rE sizing=dynamic failurescope=resource nActive=[2,3,5,8]
    performance=1600*n
tier=computation
  resource=rH sizing=static failurescope=tier nActive=[1-1024,*2]
    performance=(10*n)/(1+0.004*n)
    mechanism=checkpoint
      mperformance(storage_location=central)=if n <= 30 then max(10/checkpoint_interval, 100%) else max(n/(3*checkpoint_interval), 100%)
      mperformance(storage_location=peer)=max(20/checkpoint_interval, 100%)
  resource=rI sizing=static failurescope=tier nActive=[2,3,5,8]
    performance=(100*n)/(1+0.004*n)
|}

let odd_ranges_tier name =
  Option.get
    (Service.find_tier
       (Aved_spec.Spec.service_of_string odd_ranges_service)
       name)

let check_member (tier : Service.tier) (d : Design.tier_design) =
  match
    List.find_opt
      (fun (o : Service.resource_option) -> o.resource = d.resource)
      tier.options
  with
  | Some o ->
      Alcotest.(check bool)
        (Printf.sprintf "%s x%d is in %s" d.resource d.n_active
           (Int_range.to_string o.n_active))
        true
        (Int_range.mem o.n_active d.n_active)
  | None -> Alcotest.failf "design uses unknown resource %s" d.resource

let test_odd_ranges_tier_deterministic () =
  let tier = odd_ranges_tier "application" in
  List.iter
    (fun demand ->
      let optimal jobs =
        Tier_search.optimal (config_with_jobs jobs) (infra ()) ~tier ~demand
          ~max_downtime:(Duration.of_minutes 100.)
      in
      (match (optimal 1, optimal 2) with
      | Some a, Some b ->
          check_candidate_equal (Printf.sprintf "optimal at %g" demand) a b;
          check_member tier a.design
      | None, None -> Alcotest.failf "infeasible at demand %g" demand
      | _ -> Alcotest.failf "feasibility differs at demand %g" demand);
      let frontier jobs =
        Tier_search.frontier (config_with_jobs jobs) (infra ()) ~tier ~demand
      in
      let a = frontier 1 and b = frontier 2 in
      Alcotest.(check bool)
        (Printf.sprintf "frontier at %g is not empty" demand)
        true (a <> []);
      Alcotest.(check int)
        (Printf.sprintf "frontier size at %g" demand)
        (List.length a) (List.length b);
      List.iter2
        (check_candidate_equal (Printf.sprintf "frontier point at %g" demand))
        a b;
      List.iter (fun (c : Candidate.t) -> check_member tier c.design) a)
    [ 400.; 1000.; 2600. ]

let test_odd_ranges_job_deterministic () =
  let tier = odd_ranges_tier "computation" in
  let infra = Aved.Experiments.infrastructure_bronze () in
  List.iter
    (fun hours ->
      let run jobs =
        Job_search.optimal
          (Search_config.with_jobs jobs Aved.Experiments.fig7_config)
          infra ~tier ~job_size:Aved.Experiments.scientific_job_size
          ~max_time:(Duration.of_hours hours)
      in
      match (run 1, run 2) with
      | Some a, Some b ->
          Alcotest.(check bool)
            (Printf.sprintf "same design at %gh" hours)
            true
            (Design.compare_tier a.Job_search.design b.Job_search.design = 0);
          Alcotest.(check (float 0.))
            (Printf.sprintf "same time at %gh" hours)
            (Duration.seconds a.Job_search.execution_time)
            (Duration.seconds b.Job_search.execution_time);
          check_member tier a.Job_search.design
      | None, None -> Alcotest.failf "infeasible at %gh" hours
      | _ -> Alcotest.failf "feasibility differs at %gh" hours)
    [ 24.; 100.; 1000. ]

let test_fig6_subset_deterministic () =
  let run jobs =
    Aved.Figures.fig6
      ~config:(config_with_jobs jobs)
      ~loads:[ 600.; 1400. ] ()
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check int) "same point count" (List.length a) (List.length b);
  List.iter2
    (fun (p : Aved.Figures.fig6_point) (q : Aved.Figures.fig6_point) ->
      Alcotest.(check string) "family" p.family q.family;
      Alcotest.(check (float 0.)) "downtime" p.downtime_minutes
        q.downtime_minutes;
      Alcotest.(check (float 0.)) "cost" p.annual_cost q.annual_cost)
    a b

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick
            test_map_preserves_order;
          Alcotest.test_case "jobs=1 falls back to plain map" `Quick
            test_map_sequential_fallback;
          Alcotest.test_case "empty and singleton" `Quick
            test_map_empty_and_singleton;
          Alcotest.test_case "nested maps do not deadlock" `Quick
            test_nested_maps;
          Alcotest.test_case "exceptions propagate deterministically" `Quick
            test_exception_propagates;
          Alcotest.test_case "pool usable after an exception" `Quick
            test_pool_reusable_after_exception;
          Alcotest.test_case "many small tasks" `Quick
            test_stress_many_small_tasks;
          Alcotest.test_case "incumbent keeps the minimum" `Quick
            test_incumbent_monotone;
        ] );
      ( "memo",
        [
          Alcotest.test_case "memoized equals uncached on 1000 random models"
            `Quick test_memo_equals_uncached;
          Alcotest.test_case "cache hits ignore labels" `Quick test_memo_hits;
          Alcotest.test_case "LRU bound holds and eviction never corrupts"
            `Quick test_memo_lru_bound;
          Alcotest.test_case "LRU evicts the least recently used" `Quick
            test_memo_lru_order;
          Alcotest.test_case "memoized engine reproduces the search" `Quick
            test_memoized_engine_in_search;
        ] );
      ( "bounded-queue",
        [
          Alcotest.test_case "fifo order" `Quick test_queue_fifo;
          Alcotest.test_case "refuses pushes at capacity" `Quick
            test_queue_sheds_when_full;
          Alcotest.test_case "close drains then ends" `Quick
            test_queue_close_drains;
          Alcotest.test_case "close wakes blocked consumers" `Quick
            test_queue_close_wakes_consumers;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "tier optimal: jobs 1 = jobs 4" `Quick
            test_tier_optimal_deterministic;
          Alcotest.test_case "tier frontier: jobs 1 = jobs 4" `Quick
            test_tier_frontier_deterministic;
          Alcotest.test_case "job optimal: jobs 1 = jobs 4" `Quick
            test_job_optimal_deterministic;
          Alcotest.test_case "service design: jobs 1 = jobs 4" `Quick
            test_service_design_deterministic;
          Alcotest.test_case "fig6 subset: jobs 1 = jobs 4" `Quick
            test_fig6_subset_deterministic;
          Alcotest.test_case "geometric and explicit nActive: tier search"
            `Quick test_odd_ranges_tier_deterministic;
          Alcotest.test_case "geometric and explicit nActive: job search"
            `Quick test_odd_ranges_job_deterministic;
        ] );
    ]

(** Domain-local evaluation cache for the search's inner loop.

    The enumeration in {!Tier_search} and {!Job_search} revisits the
    same (resource option, mechanism settings, spare-active set)
    combination at many resource counts. Everything that does not
    depend on the counts — failure classes, loss window, the effective
    performance curve, per-resource costs — is derived once per
    combination via {!Aved_avail.Tier_model.Skeleton} and kept in
    domain-local storage; downtime fractions of the deterministic
    engines are additionally memoized per (n, m, s) with plain integer
    keys, bypassing the locked global {!Aved_avail.Memo} table.

    Everything served from the cache is bitwise identical to the
    uncached computation (same operations in the same order), so search
    results — including [Rejected] provenance messages — are unchanged.

    Caches auto-invalidate when a different infrastructure value (by
    physical identity) is presented. *)

type entry

val settings_product :
  Aved_model.Infrastructure.t ->
  Aved_model.Resource.t ->
  (string * Aved_model.Mechanism.setting) list list
(** Every combination of settings of the mechanisms the resource
    references. [[[]]] when it references none. *)

val settings_entries :
  infra:Aved_model.Infrastructure.t ->
  tier_name:string ->
  option:Aved_model.Service.resource_option ->
  ((string * Aved_model.Mechanism.setting) list * entry) list
(** {!settings_product} of the option's resource paired with each
    combination's no-spare entry, memoized per domain so the totals
    loop of a search pays one small lookup per enumeration instead of
    one structural-key lookup per combination. *)

val spare_entries : entry -> (string list * entry) list
(** The spare-operational-mode fan-out of the entry's combination in
    [Resource.downward_closed_subsets] order — the empty mode maps to
    the entry itself — memoized on the entry. *)

val skeleton : entry -> Aved_avail.Tier_model.Skeleton.t

val minimum_actives : entry -> demand:float -> int option
(** As {!Aved_avail.Tier_model.minimum_actives}, memoized. *)

val tier_cost : entry -> n_active:int -> n_spare:int -> Aved_units.Money.t
(** Bitwise identical to [Design.tier_cost] of the corresponding
    design. *)

val model :
  entry ->
  n_active:int ->
  n_spare:int ->
  demand:float option ->
  Aved_avail.Tier_model.t
(** Bitwise identical to [Tier_model.build] of the corresponding design,
    including raising the same [Rejected] exceptions. *)

val downtime_fraction :
  entry -> Aved_avail.Evaluate.engine -> Aved_avail.Tier_model.t -> float
(** The engine's downtime fraction for a model instantiated from this
    entry. [Analytic] and [Memoized] results are cached per
    (n_active, n_min, n_spare) — the full parameter set of those
    engines; validation engines pass through uncached. Hits and misses
    are counted as telemetry counters [search.eval.downtime.reused] /
    [search.eval.downtime.fresh] when a registry is recording. *)

val reset : unit -> unit
(** Drop the calling domain's cache (tests and benchmarks). *)

(** Design-space search for finite jobs (paper §2, §5.2).

    The only requirement is the expected job completion time. The search
    explores resource type, number of (static) active resources, spares,
    spare modes, and mechanism parameters — for the paper's scientific
    example: the checkpoint interval and the checkpoint storage
    location. Counts below the failure-free feasibility threshold are
    skipped without evaluation.

    With [config.jobs > 1] the resource options are searched on a
    domain pool, each option's mechanism-settings grid sequentially
    within its task; results are bit-identical to the sequential
    search (candidates are ranked under a total order — cost,
    execution time, then {!Aved_model.Design.compare_tier} — and
    cross-branch pruning uses only sound cost bounds). *)

module Duration = Aved_units.Duration
module Money = Aved_units.Money

type candidate = {
  design : Aved_model.Design.tier_design;
  model : Aved_avail.Tier_model.t;
  cost : Money.t;  (** Annual cost of the infrastructure. *)
  execution_time : Duration.t;  (** Expected job completion time. *)
}

val evaluate :
  Search_config.t ->
  Aved_model.Infrastructure.t ->
  option:Aved_model.Service.resource_option ->
  job_size:float ->
  Aved_model.Design.tier_design ->
  candidate
(** Evaluate one resolved design. *)

val optimal :
  ?pool:Aved_parallel.Pool.t ->
  Search_config.t ->
  Aved_model.Infrastructure.t ->
  tier:Aved_model.Service.tier ->
  job_size:float ->
  max_time:Duration.t ->
  candidate option
(** Minimum-cost design whose expected completion time meets the bound
    (ties broken toward faster completion), or [None]. *)

val frontier :
  ?pool:Aved_parallel.Pool.t ->
  Search_config.t ->
  Aved_model.Infrastructure.t ->
  tier:Aved_model.Service.tier ->
  job_size:float ->
  max_time:Duration.t ->
  candidate list
(** Pareto frontier over (cost, execution time) for designs able to
    finish within [max_time], sorted by increasing cost. *)

val pp_candidate : Format.formatter -> candidate -> unit

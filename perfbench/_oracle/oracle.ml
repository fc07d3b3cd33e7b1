(* In-process reference for the perfbench serve workloads.

   [oracle answer FILE] reads request bodies (one v2 wire request per
   line, as sent to [aved serve]) and answers each by calling the
   libraries directly — the same entry points and the same [Aved_api]
   encoders the CLI's --json flag uses — at schema version 2. Output is
   one line per request:

     <id as JSON> TAB ok TAB <Json.to_string of the result>
     <id as JSON> TAB error TAB <message as a JSON string>

   The benchmark compares the daemon's [result] bytes against the [ok]
   payload, so both sides are rendered by the repo's own serializer.

   [oracle time-specs REPS INFRA SERVICE [INFRA SERVICE ...]] times
   [Spec.load] and [Check.check_files] on each file pair, REPS times
   each, and prints {"spec_load_ms":[...],"check_files_ms":[...]}. *)

module Json = Aved_explain.Json
module Api = Aved_api.Api
module Model = Aved_model
module Duration = Aved_units.Duration

let version = 2

let config =
  Aved_search.Search_config.default
  |> Aved_search.Search_config.with_jobs 1
  |> Aved_search.Search_config.with_memo

let field fields name = List.assoc_opt name fields

let string_field fields name =
  match field fields name with
  | Some (Json.String s) -> s
  | _ -> failwith (Printf.sprintf "request lacks string param %S" name)

let number_field fields name =
  match field fields name with
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

let requirements params =
  match
    ( number_field params "load",
      number_field params "downtime_minutes",
      number_field params "job_hours" )
  with
  | Some load, Some minutes, None ->
      Model.Requirements.enterprise ~throughput:load
        ~max_annual_downtime:(Duration.of_minutes minutes)
  | None, None, Some hours ->
      Model.Requirements.finite_job
        ~max_execution_time:(Duration.of_hours hours)
  | _ -> failwith "request has no requirement"

let load_specs params =
  let infra_file = string_field params "infra_file" in
  let service_file = string_field params "service_file" in
  let infra, service = Aved_spec.Spec.load ~infra_file ~service_file in
  let errors =
    Aved_check.Check.check_files [ infra_file; service_file ]
    |> List.filter (fun (d : Aved_check.Diagnostic.t) ->
           d.severity = Aved_check.Diagnostic.Error)
  in
  if errors <> [] then
    failwith
      (Printf.sprintf
         "static check failed with %d error(s); set \"no_check\":true to \
          override"
         (List.length errors));
  (infra, service)

let answer verb params =
  match verb with
  | "design" ->
      let infra, service = load_specs params in
      let report = Aved.Engine.design ~config infra service (requirements params) in
      Api.design_result_to_json ~version (Api.design_result_of_report report)
  | "frontier" ->
      let infra, service = load_specs params in
      let tier =
        match field params "tier" with
        | Some (Json.String name) -> (
            match Model.Service.find_tier service name with
            | Some t -> t
            | None -> failwith (Printf.sprintf "no tier %S" name))
        | _ -> List.hd service.Model.Service.tiers
      in
      let load = Option.get (number_field params "load") in
      let frontier =
        Aved_search.Tier_search.frontier config infra ~tier ~demand:load
      in
      Api.frontier_result_to_json ~version
        (Api.frontier_result_of_candidates ~tier:tier.Model.Service.tier_name
           ~demand:load frontier)
  | "explain" ->
      let infra, service = load_specs params in
      let requirements = requirements params in
      let trail = Aved_search.Provenance.create () in
      let result =
        Aved_search.Provenance.with_trail trail @@ fun () ->
        Aved.Engine.design ~config infra service requirements
      in
      let explanation =
        Option.map
          (fun report ->
            Aved.Engine.explain ~top:5 ~trail ~config infra service
              requirements report)
          result
      in
      Api.explain_result_to_json ~version
        (Api.explain_result_of_explanation explanation)
  | "check" ->
      let files =
        match field params "files" with
        | Some (Json.List items) ->
            List.map
              (function Json.String s -> s | _ -> failwith "bad files")
              items
        | _ -> failwith "request lacks files"
      in
      Api.check_result_to_json ~version
        (Api.check_result_of_diagnostics (Aved_check.Check.check_files files))
  | verb -> failwith (Printf.sprintf "oracle does not answer %S" verb)

let answer_file path =
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       let request = Aved_api.Json_parse.of_string_exn line in
       let fields = match request with Json.Obj f -> f | _ -> [] in
       let id = Option.value (field fields "id") ~default:Json.Null in
       let verb =
         match field fields "verb" with Some (Json.String v) -> v | _ -> ""
       in
       let params =
         match field fields "params" with Some (Json.Obj p) -> p | _ -> []
       in
       let kind, payload =
         match answer verb params with
         | result -> ("ok", Json.to_string result)
         | exception Failure message -> ("error", Json.to_string (Json.String message))
         | exception Sys_error message ->
             ("error", Json.to_string (Json.String message))
         | exception exn -> (
             match Aved_spec.Spec.error_to_string exn with
             | Some message -> ("error", Json.to_string (Json.String message))
             | None -> raise exn)
       in
       Printf.printf "%s\t%s\t%s\n" (Json.to_string id) kind payload
     done
   with End_of_file -> ());
  close_in ic

let time_ms f =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  (Unix.gettimeofday () -. t0) *. 1000.

let time_specs reps pairs =
  let load_ms = ref [] and check_ms = ref [] in
  for _ = 1 to reps do
    List.iter
      (fun (infra_file, service_file) ->
        load_ms :=
          time_ms (fun () -> Aved_spec.Spec.load ~infra_file ~service_file)
          :: !load_ms;
        check_ms :=
          time_ms (fun () ->
              Aved_check.Check.check_files [ infra_file; service_file ])
          :: !check_ms)
      pairs
  done;
  let floats l = Json.List (List.rev_map (fun x -> Json.Float x) l) in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("spec_load_ms", floats !load_ms); ("check_files_ms", floats !check_ms) ]))

let () =
  match Array.to_list Sys.argv with
  | [ _; "answer"; path ] -> answer_file path
  | _ :: "time-specs" :: reps :: files ->
      let rec pairs = function
        | a :: b :: rest -> (a, b) :: pairs rest
        | _ -> []
      in
      time_specs (int_of_string reps) (pairs files)
  | _ ->
      prerr_endline "usage: oracle answer FILE | oracle time-specs REPS INFRA SERVICE ...";
      exit 2

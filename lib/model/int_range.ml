type t =
  | Singleton of int
  | Arithmetic of { lo : int; hi : int; step : int }
  | Geometric of { lo : int; hi : int; factor : int }
  | Explicit of int list

let singleton n =
  if n < 0 then invalid_arg (Printf.sprintf "Int_range.singleton: %d" n);
  Singleton n

let arithmetic ~lo ~hi ~step =
  if lo < 0 || hi < lo || step <= 0 then
    invalid_arg
      (Printf.sprintf "Int_range.arithmetic: [%d-%d,+%d]" lo hi step);
  Arithmetic { lo; hi; step }

let geometric ~lo ~hi ~factor =
  if lo < 1 || hi < lo || factor <= 1 then
    invalid_arg
      (Printf.sprintf "Int_range.geometric: [%d-%d,*%d]" lo hi factor);
  Geometric { lo; hi; factor }

let explicit = function
  | [] -> invalid_arg "Int_range.explicit: empty"
  | values ->
      if List.exists (fun v -> v < 0) values then
        invalid_arg "Int_range.explicit: negative member";
      Explicit (List.sort_uniq Int.compare values)

(* The member after [n] of a [Singleton]/[Arithmetic]/[Geometric]
   range, when [n] is a member; [-1] (never a member) when [n] is the
   last. Allocation-free, and written so that stepping past [hi] cannot
   overflow near [max_int]. *)
let succ t n =
  match t with
  | Arithmetic { hi; step; _ } -> if n > hi - step then -1 else n + step
  | Geometric { hi; factor; _ } -> if n > hi / factor then -1 else n * factor
  | Singleton _ | Explicit _ -> -1

let min_value = function
  | Singleton n -> n
  | Arithmetic { lo; _ } | Geometric { lo; _ } -> lo
  | Explicit values -> List.hd values

let to_list = function
  | Explicit values -> values
  | (Singleton _ | Arithmetic _ | Geometric _) as t ->
      let rec loop n acc =
        if n < 0 then List.rev acc else loop (succ t n) (n :: acc)
      in
      loop (min_value t) []

let max_value t =
  match t with
  | Singleton n -> n
  | Arithmetic { lo; hi; step } -> lo + ((hi - lo) / step * step)
  | Geometric { lo; _ } ->
      let rec top n = match succ t n with -1 -> n | m -> top m in
      top lo
  | Explicit values ->
      let rec last = function
        | [ n ] -> n
        | _ :: rest -> last rest
        | [] -> assert false
      in
      last values

(* The first member [>= n] of a [Geometric] range, or [-1]. *)
let geometric_from t n =
  let rec from v = if v < 0 || v >= n then v else from (succ t v) in
  from (min_value t)

let next_above t n =
  match t with
  | Singleton v -> if v >= n then Some v else None
  | Arithmetic { lo; hi; step } ->
      if n <= lo then Some lo
      else if n > hi then None
      else
        (* The index of the first member >= n, checked against the last
           index before multiplying, so nothing overflows. *)
        let k = ((n - lo - 1) / step) + 1 in
        if k > (hi - lo) / step then None else Some (lo + (k * step))
  | Geometric _ -> (
      match geometric_from t n with -1 -> None | v -> Some v)
  | Explicit values -> List.find_opt (fun v -> v >= n) values

let mem t n =
  match t with
  | Singleton v -> v = n
  | Arithmetic { lo; hi; step } -> n >= lo && n <= hi && (n - lo) mod step = 0
  | Geometric _ -> geometric_from t n = n
  | Explicit values -> List.mem n values

let find_first t p =
  match t with
  | Explicit values -> List.find_opt p values
  | Singleton _ | Arithmetic _ | Geometric _ ->
      let rec from n =
        if n < 0 then None else if p n then Some n else from (succ t n)
      in
      from (min_value t)

let members t ~lo ~hi =
  match t with
  | Explicit values -> List.filter (fun v -> v >= lo && v <= hi) values
  | Singleton _ | Arithmetic _ | Geometric _ -> (
      let rec upto n acc =
        if n < 0 || n > hi then List.rev acc else upto (succ t n) (n :: acc)
      in
      match next_above t lo with Some n -> upto n [] | None -> [])

let of_string text =
  let text = String.trim text in
  let n = String.length text in
  if n < 2 || text.[0] <> '[' || text.[n - 1] <> ']' then
    invalid_arg (Printf.sprintf "Int_range.of_string: %S" text);
  let body = String.trim (String.sub text 1 (n - 2)) in
  let int_of s =
    match int_of_string_opt (String.trim s) with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Int_range.of_string: bad int %S" s)
  in
  match String.split_on_char ',' body with
  | [ single ] when not (String.contains single '-') ->
      singleton (int_of single)
  | [ range; step ] when String.contains range '-' -> (
      let lo, hi =
        match String.index_opt range '-' with
        | Some i ->
            ( int_of (String.sub range 0 i),
              int_of (String.sub range (i + 1) (String.length range - i - 1)) )
        | None -> assert false
      in
      let step = String.trim step in
      match step.[0] with
      | '+' ->
          arithmetic ~lo ~hi
            ~step:(int_of (String.sub step 1 (String.length step - 1)))
      | '*' ->
          geometric ~lo ~hi
            ~factor:(int_of (String.sub step 1 (String.length step - 1)))
      | _ -> invalid_arg (Printf.sprintf "Int_range.of_string: bad step %S" step)
      | exception Invalid_argument _ ->
          invalid_arg (Printf.sprintf "Int_range.of_string: %S" text))
  | parts when List.length parts > 1 && not (String.contains body '-') ->
      explicit (List.map int_of parts)
  | _ -> invalid_arg (Printf.sprintf "Int_range.of_string: %S" text)

let to_string = function
  | Singleton n -> Printf.sprintf "[%d]" n
  | Arithmetic { lo; hi; step } -> Printf.sprintf "[%d-%d,+%d]" lo hi step
  | Geometric { lo; hi; factor } -> Printf.sprintf "[%d-%d,*%d]" lo hi factor
  | Explicit values ->
      "[" ^ String.concat "," (List.map string_of_int values) ^ "]"

let pp ppf t = Format.pp_print_string ppf (to_string t)

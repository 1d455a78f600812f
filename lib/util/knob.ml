let raw name =
  match Sys.getenv_opt name with
  | None -> None
  | Some s -> ( match String.trim s with "" -> None | v -> Some v)

let reject name v want =
  invalid_arg (Printf.sprintf "%s=%S: expected %s" name v want)

(* [parse] turns one trimmed token into [Some x] when it is a valid
   value; [want] describes the valid values for the error message. *)
let read name ~default ~want parse =
  match raw name with
  | None -> default
  | Some v -> ( match parse v with Some x -> x | None -> reject name v want)

let read_list name ~default ~want parse =
  read name ~default ~want:("comma-separated " ^ want) (fun v ->
      let items = List.map (fun tok -> parse (String.trim tok))
          (String.split_on_char ',' v) in
      if List.for_all Option.is_some items then Some (List.map Option.get items)
      else None)

let int_in ~min s =
  match int_of_string_opt s with Some n when n >= min -> Some n | _ -> None

let float_in ~above s =
  match float_of_string_opt s with
  | Some f when Float.is_finite f && f > above -> Some f
  | _ -> None

let int name ~default ~min =
  read name ~default ~want:(Printf.sprintf "an integer >= %d" min) (int_in ~min)

let int_list name ~default ~min =
  read_list name ~default ~want:(Printf.sprintf "integers >= %d" min)
    (int_in ~min)

let float_list name ~default ~above =
  read_list name ~default ~want:(Printf.sprintf "numbers > %g" above)
    (float_in ~above)

let flag name ~default =
  read name ~default ~want:"0 or 1" (function
    | "0" | "false" -> Some false
    | "1" | "true" -> Some true
    | _ -> None)

let choice name ~default names =
  read name ~default ~want:("one of " ^ String.concat ", " names) (fun v ->
      let v = String.lowercase_ascii v in
      if List.mem v names then Some v else None)

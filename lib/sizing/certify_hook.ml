type check =
  where:string ->
  t_target:float ->
  z:float ->
  converged:bool ->
  mu:float ->
  sigma:float ->
  (unit, string) result

exception Refuted of string

let checker : check option ref = ref None
let register f = checker := Some f

let postcondition ~where ~t_target ~z ~converged ~mu ~sigma =
  match !checker with
  | None -> ()
  | Some f -> (
      match f ~where ~t_target ~z ~converged ~mu ~sigma with
      | Ok () -> ()
      | Error msg ->
          raise
            (Refuted
               (Printf.sprintf "%s: sizing certificate refuted: %s" where msg)))

(** Sizing-result certificate hook — the always-on sizer exit
    criterion.

    Mirrors the engine's [SPV_DEBUG_BOUNDS] postcondition pattern: the
    analysis layer registers a certificate oracle here (a function
    pointer, so sizing does not depend on analysis).  Once an oracle
    is registered, every {!Lagrangian.size_stage} /
    {!Greedy.size_stage} report is handed to it before being
    returned.  A refuted certificate raises
    [Refuted "<where>: sizing certificate refuted: <msg>"].

    [Spv_analysis.Certify.install_sizing_check] registers the
    eq. 10–13 design-space membership check. *)

type check =
  where:string ->
  t_target:float ->
  z:float ->
  converged:bool ->
  mu:float ->
  sigma:float ->
  (unit, string) result
(** [mu]/[sigma] describe the achieved stage-delay Gaussian; [z] is
    the sizer's yield quantile; [converged] is the sizer's own
    verdict (oracles typically skip unconverged reports — the sizer
    already signals failure through them). *)

exception Refuted of string
(** A sizer report the registered oracle refuted; the payload is the
    full message. *)

val register : check -> unit
(** Install (or replace) the certificate oracle. *)

val postcondition :
  where:string ->
  t_target:float ->
  z:float ->
  converged:bool ->
  mu:float ->
  sigma:float ->
  unit
(** Run the registered oracle, if any; raises {!Refuted} on a refuted
    certificate.  Called by the sizers on every report. *)

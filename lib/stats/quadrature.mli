(** Numerical integration, used as an independent oracle for the Clark
    moment formulas in tests (E[max] as an integral against the joint
    density). *)

val simpson : f:(float -> float) -> lo:float -> hi:float -> n:int -> float
(** Composite Simpson rule with [n] (forced even) panels. *)

val adaptive_simpson :
  ?eps:float -> f:(float -> float) -> lo:float -> hi:float -> unit -> float
(** Adaptive Simpson with absolute tolerance [eps] (default 1e-10) and
    at most 50 levels of bisection. *)

val gauss_legendre_32 : f:(float -> float) -> lo:float -> hi:float -> float
(** 32-point Gauss–Legendre on [\[lo, hi\]]. *)

val expectation_of_max2 :
  mu1:float -> sigma1:float -> mu2:float -> sigma2:float -> rho:float ->
  float * float
(** (E[max(X1,X2)], E[max(X1,X2)^2]) by 2-D numerical integration over
    the joint Gaussian density — slow but independent of Clark's
    closed forms. *)

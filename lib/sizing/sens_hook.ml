type yield_skip_env = {
  ye_ctx : Spv_engine.Engine.Ctx.t;
  ye_stage : int;
  ye_t_target : float;
  ye_current : float;
  ye_min_size : float;
  ye_max_size : float;
}

let yield_skipper : (yield_skip_env -> bool) option ref = ref None
let enabled = ref true
let set_enabled b = enabled := b
let is_enabled () = !enabled
let register_yield_skip f = yield_skipper := Some f
let yield_skip () = if !enabled then !yield_skipper else None

type stats = { mutable probes_run : int; mutable probes_skipped : int }

let stats = { probes_run = 0; probes_skipped = 0 }

let reset_stats () =
  stats.probes_run <- 0;
  stats.probes_skipped <- 0

type move = {
  mv_node : int;
  mv_from : float;
  mv_to : float;
  mv_darea : float;
}

type prune_env = {
  pe_tech : Spv_process.Tech.t;
  pe_net : Spv_circuit.Netlist.t;
  pe_ff : Spv_process.Flipflop.t option;
  pe_z : float;
}

type yield_skip_env = {
  ye_ctx : Spv_engine.Engine.Ctx.t;
  ye_stage : int;
  ye_t_target : float;
  ye_current : float;
  ye_min_size : float;
  ye_max_size : float;
}

let move_pruner : (prune_env -> move list -> bool array) option ref = ref None
let yield_skipper : (yield_skip_env -> bool) option ref = ref None
let enabled = ref true
let set_enabled b = enabled := b
let is_enabled () = !enabled
let register_move_prune f = move_pruner := Some f
let register_yield_skip f = yield_skipper := Some f
let move_prune () = if !enabled then !move_pruner else None
let yield_skip () = if !enabled then !yield_skipper else None

type stats = {
  mutable moves_evaluated : int;
  mutable moves_pruned : int;
  mutable probes_run : int;
  mutable probes_skipped : int;
}

let stats =
  { moves_evaluated = 0; moves_pruned = 0; probes_run = 0; probes_skipped = 0 }

let reset_stats () =
  stats.moves_evaluated <- 0;
  stats.moves_pruned <- 0;
  stats.probes_run <- 0;
  stats.probes_skipped <- 0

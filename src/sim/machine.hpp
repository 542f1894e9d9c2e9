// Top-level simulator: wires the I-cache, cipher engine, the selected
// front end (vanilla or SOFIA, from the image) and the execute side
// together, and runs an image to completion. The execute side is the
// shared SR32 step (sim/core.hpp) wrapped with operand-ready timing.
#pragma once

#include "assembler/image.hpp"
#include "sim/config.hpp"

namespace sofia::sim {

/// Run a loaded image under the given configuration. For SOFIA images the
/// configured device keys and block policy must match the ones the binary
/// was transformed with — a mismatch behaves exactly like tampering (the
/// device resets), which is itself the paper's security property.
///
/// This is the cycle-accurate machine, i.e. the implementation behind the
/// "cycle" entry of sim::backend_registry() (sim/backend.hpp). Consumers
/// outside src/sim should route through the registry (via
/// pipeline::Pipeline), not call this directly — only the simulator's own
/// tests and the cipher microbench are expected here.
RunResult run_image(const assembler::LoadImage& image, const SimConfig& config);

}  // namespace sofia::sim

// Source-level contract annotations. These expand to nothing — they change
// neither codegen nor ABI — and exist so tools/detlint can enforce contracts
// statically that the test suite otherwise only catches at runtime.
//
// IBSEC_HOT marks a function as part of the per-event / per-packet path:
// the event loop, link/switch/VL-arbiter forwarding, the RC reliability
// window, and the streaming MACs. Inside an annotated body detlint's
// hot-alloc pass flags heap allocation (new, make_unique/make_shared,
// std::function), node-based containers, unreserved push_back, and
// std::string temporaries — the static face of the zero-allocation budget
// that common/alloc_probe.h and the zero-allocation tests in
// tests/test_hot_path.cpp verify dynamically.
//
// Place it between the return type's end and the function name, like a
// compiler attribute:
//
//   IBSEC_HOT void pop_and_run();
//   void IBSEC_HOT OutputPort::enqueue(Packet&& pkt) { ... }
//
// Intentional amortized allocations inside a hot body (pool growth, lazy
// one-time metric registration) carry an IBSEC_DETLINT_ALLOW waiver naming
// the hot-alloc rule, with a justification; the unused-allow pass deletes
// them when they rot. The directive must sit on the flagged line or the
// line directly above it.
#pragma once

#define IBSEC_HOT

/**
 * @file
 * Autoregressive generation - the public surface over
 * src/serve/generation/. A GenerationRequest (prompt, step budget,
 * seeded sampler, streaming callback) becomes a chain of phase-tagged
 * engine submissions: bounded prefill chunks that can never stall a
 * running decode stream for more than one chunk, and decode steps
 * that ride the engine's urgent queue with their single new column
 * group pre-prepped off the critical path.
 *
 *   panacea::Runtime rt;
 *   panacea::CompiledModel m = rt.compile(panacea::opt350m());
 *   panacea::Session s = rt.createSession({.continuous = true});
 *
 *   panacea::GenerationRequest req;
 *   req.prompt = prompt;            // inputFeatures x (k*v) floats
 *   req.maxSteps = 16;
 *   req.samplerSeed = 42;
 *   req.onStep = [](const panacea::GenerationStepView &sv) {
 *       stream(sv.output, sv.rows, sv.cols);  // valid during call
 *   };
 *   panacea::GenerationResult r = s.generate(m, req).get();
 *   // r.output: outputFeatures x (16*v), byte-identical to a manual
 *   // per-step loop at any ISA level / worker count / replica count.
 *
 * Determinism: the decode chain is a pure function of
 * (samplerSeed, prompt bytes). Prefill chunk bound, ISA level,
 * worker count, admission timing and replica count change
 * WHEN steps execute, never their bytes (tests/test_generation.cpp).
 */

#ifndef PANACEA_PUBLIC_GENERATION_H
#define PANACEA_PUBLIC_GENERATION_H

#include "serve/generation/generation.h"

namespace panacea {

/** Which half of a generation a step belonged to (prefill/decode). */
using GenerationPhase = serve::GenerationPhase;

/** The deterministic next-step sampler (seed -> decode chain). */
using TokenSampler = serve::TokenSampler;

/** One generation job: prompt, steps, seed, policy, callback. */
using GenerationRequest = serve::GenerationRequest;

/** Streaming view of one completed step (valid during callback). */
using GenerationStepView = serve::GenerationStepView;

/** Scheduling record of one engine step of a generation. */
using GenerationStepMeta = serve::GenerationStepMeta;

/** Terminal record: prefill + decode outputs, stats, latency rings. */
using GenerationResult = serve::GenerationResult;

/** Aggregate scheduler counters: tokens/s, TTFT and inter-token
 *  percentiles, paged-state accounting. */
using GenerationStats = serve::GenerationStats;

} // namespace panacea

#endif // PANACEA_PUBLIC_GENERATION_H

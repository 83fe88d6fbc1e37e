#include "battery/stochastic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace bas::bat {

namespace {

// Most slots of demand one quiet-slot block's bound spans (do_draw).
constexpr double kBlockSlots = 256.0;

}  // namespace

StochasticBattery::StochasticBattery(StochasticParams params)
    : params_(params), rng_(params.seed) {
  if (!(params_.slot_s > 0.0) || !(params_.quantum_c > 0.0)) {
    throw std::invalid_argument("StochasticBattery: bad parameters");
  }
  if (!(params_.kinetics.capacity_c > 0.0) ||
      !(params_.kinetics.c_fraction > 0.0) ||
      params_.kinetics.c_fraction >= 1.0 || !(params_.kinetics.k_rate > 0.0)) {
    throw std::invalid_argument("StochasticBattery: bad kinetic parameters");
  }
  const double c = params_.kinetics.c_fraction;
  one_minus_c_ = 1.0 - c;
  flow_coeff_ = params_.kinetics.k_rate * c * (1.0 - c);
  do_reset();
}

bool StochasticBattery::empty() const { return dead_; }

double StochasticBattery::state_of_charge() const {
  return (y1_ + y2_) / params_.kinetics.capacity_c;
}

std::unique_ptr<Battery> StochasticBattery::fresh_clone() const {
  return std::make_unique<StochasticBattery>(params_);
}

double StochasticBattery::do_sigma_after(double current_a, double t_s) const {
  const double k = params_.kinetics.k_rate;
  const double c = params_.kinetics.c_fraction;
  const double y0 = y1_ + y2_;
  ++kc_.exp_calls;
  const double e = std::exp(-k * t_s);
  // Manwell-McGowan closed form from (y1_, y2_) — the expectation of
  // the Bernoulli-quantized drift the slots realize.
  const double y1_end = y1_ * e + (y0 * k * c - current_a) * (1.0 - e) / k -
                        current_a * c * (k * t_s - 1.0 + e) / k;
  return 1.0 - y1_end / (c * params_.kinetics.capacity_c);
}

double StochasticBattery::do_draw(double current_a, double dt_s) {
  // One fused loop over the fixed-width slots. The wells, the generator
  // and the counters live in locals for the whole call and are written
  // back once, so the per-slot Bernoulli draw (Rng::uniform, inline)
  // never forces the state through memory.
  const double c = params_.kinetics.c_fraction;
  const double one_minus_c = one_minus_c_;
  const double flow_coeff = flow_coeff_;
  const double quantum_c = params_.quantum_c;
  const double slot_s = params_.slot_s;
  double y1 = y1_;
  double y2 = y2_;
  util::Rng rng = rng_;
  std::uint64_t slots = 0;
  std::uint64_t slot_transfers = 0;

  // Whole quanta a slot moves: floor(quanta), plus one with probability
  // frac(quanta). Truncation is floor for a non-negative count below
  // 2^52, and at or above it every double is already integral; frac is
  // in [0, 1), so `u < frac` is exactly Rng::bernoulli(frac).
  auto quanta_moved = [&slot_transfers](double quanta, double u) {
    double whole = quanta < 0x1.0p52
                       ? static_cast<double>(static_cast<std::int64_t>(quanta))
                       : quanta;
    if (u < quanta - whole) {
      whole += 1.0;
    }
    slot_transfers += whole >= 1.0 ? 1 : 0;
    return whole;
  };

  double sustained = 0.0;
  double remaining = dt_s;
  while (remaining > 0.0 && !dead_) {
    // Quiet-slot block. A full slot whose draw misses its fractional
    // quantum moves nothing and survives, so it only applies
    // `y1 += 0.0 - demand_c`, `remaining -= slot_s` and
    // `sustained += slot_s`. The block retires a run of such slots with
    // one draw and one compare against `bound`, a quanta value no slot
    // of the run can exceed:
    //  - quanta(y1) = ((flow_coeff * (h2 - y1 / c)) * slot_s) / quantum_c
    //    is non-increasing in y1: every operation is correctly rounded
    //    and monotone in its operand (c, flow_coeff, slot_s and
    //    quantum_c are positive), and y1 enters through a subtraction.
    //  - Quiet slots leave y2, hence h2, as they are, and the block runs
    //    only while y1 >= y1_lb. So `bound` = quanta(y1_lb) is at least
    //    each slot's quanta.
    //  - y1 only falls inside the block, so each slot's expected
    //    transfer is at least the positive one at block start: every
    //    slot takes exactly one draw, as the per-slot path does.
    //  - bound < 1 makes every slot's whole quanta 0, so a draw
    //    u >= bound misses the slot's fraction; y1 >= y1_lb > demand_c
    //    keeps the cell alive through the slot.
    // A draw below the bound gets the slot's exact quanta. If it still
    // misses, the slot is quiet; otherwise the slot moves charge and the
    // per-slot path below runs it with the draw already taken. Draws,
    // adds and counters therefore match the per-slot loop one for one.
    // y1_lb spans at most kBlockSlots slots of demand: a longer run
    // loosens the bound and sends more draws to the exact comparison.
    bool drawn = false;
    double u = 0.0;
    if (!(remaining < slot_s)) {
      const double h2 = y2 / one_minus_c;
      const double demand_c = current_a * slot_s;
      if (flow_coeff * (h2 - y1 / c) * slot_s > 0.0) {
        const double y1_lb =
            y1 - std::min(remaining / slot_s, kBlockSlots) * demand_c;
        const double bound =
            flow_coeff * (h2 - y1_lb / c) * slot_s / quantum_c;
        if (bound < 1.0 && y1_lb > demand_c) {
          const double quiet_step = 0.0 - demand_c;
          // The draw is compared as the 53-bit integer k that
          // Rng::uniform() scales by 2^-53. Scaling by a power of two is
          // exact and bound is in [0, 1), so
          // u < bound <=> k < bound * 2^53 <=> k < ceil(bound * 2^53).
          const auto bound_k =
              static_cast<std::uint64_t>(std::ceil(bound * 0x1.0p53));
          while (y1 >= y1_lb && !(remaining < slot_s)) {
            const std::uint64_t k = rng.next_u64() >> 11;
            if (k < bound_k) {
              u = static_cast<double>(k) * 0x1.0p-53;
              if (u < flow_coeff * (h2 - y1 / c) * slot_s / quantum_c) {
                drawn = true;
                break;
              }
            }
            remaining -= slot_s;
            ++slots;
            y1 += quiet_step;
            sustained += slot_s;
          }
          if (!drawn) {
            continue;
          }
        }
      }
    }

    const double dt = std::min(slot_s, remaining);
    remaining -= dt;
    ++slots;

    // Kinetic drift between the wells for this slot, realized as an
    // integral number of quanta plus a Bernoulli fractional quantum so
    // that E[moved] matches KibamBattery's flow. The closed form's rate
    // constant k' relates to the height-difference flow by a c(1-c)
    // factor: dy1/dt = -I + k' * c * (1-c) * (h2 - h1), with the
    // k'·c·(1-c) product hoisted to the constructor. Every slot with a
    // nonzero expected transfer consumes exactly one uniform draw (a
    // block hands its draw over: its slot has a positive expected
    // transfer). A zero transfer evaluates to `y1 += 0.0 - demand_c`
    // and leaves y2 as it is, the quiet slot's update.
    const double h1 = y1 / c;
    const double h2 = y2 / one_minus_c;
    const double expected_transfer_c = flow_coeff * (h2 - h1) * dt;
    const double demand_c = current_a * dt;
    double transfer_c = 0.0;
    if (expected_transfer_c > 0.0) {
      const double quanta = expected_transfer_c / quantum_c;
      if (!drawn) {
        u = rng.uniform();
      }
      transfer_c = std::min(quanta_moved(quanta, u) * quantum_c, y2);
    } else if (expected_transfer_c < 0.0) {
      // Available well above the bound well (cannot happen from a full
      // start under discharge, but keep the dynamics symmetric).
      const double quanta = -expected_transfer_c / quantum_c;
      transfer_c =
          -std::min(quanta_moved(quanta, rng.uniform()) * quantum_c, y1);
    }

    if (y1 + transfer_c <= demand_c) {
      // Dies within the slot; grant the time the available charge funds.
      const double funded =
          current_a > 0.0 ? (y1 + transfer_c) / current_a : dt;
      y2 -= std::max(0.0, transfer_c);
      y1 = 0.0;
      dead_ = true;
      sustained += std::min(funded, dt);
      break;
    }
    y1 += transfer_c - demand_c;
    y2 -= transfer_c;
    y2 = std::max(0.0, y2);
    sustained += dt;
  }

  y1_ = y1;
  y2_ = y2;
  rng_ = rng;
  kc_.slots += slots;
  kc_.slot_transfers += slot_transfers;
  return sustained;
}

void StochasticBattery::do_reset() {
  y1_ = params_.kinetics.c_fraction * params_.kinetics.capacity_c;
  y2_ = (1.0 - params_.kinetics.c_fraction) * params_.kinetics.capacity_c;
  dead_ = false;
  rng_ = util::Rng(params_.seed);
}

}  // namespace bas::bat

//! Deterministic fault injection for the sharded runtime.
//!
//! The paper's RF lanes are hardware and fail like hardware: a lane dies
//! or returns garbage, and the farm must degrade one slice of the
//! stream, never the service. This module provides the software test rig
//! for that contract: [`FaultyBackend`] wraps any [`FilterBackend`] and
//! injects **deterministic, seed-driven faults** — panics or
//! wrong-length decision vectors — at configurable byte offsets or on
//! configurable byte values, so the runtime's panic-isolation and
//! retry ladder can be exercised repeatably.
//!
//! The module is compiled only under `cfg(test)` or the `fault` feature:
//! it exists to break lanes on purpose and has no place in a production
//! build.
//!
//! # Arming
//!
//! The sharded runner compiles its lanes internally, so the fault plan
//! cannot be passed through a constructor; instead a process-global plan
//! is **armed** and snapshotted by every [`FaultyBackend`] compiled
//! while it is active:
//!
//! ```
//! use rfjson_core::{Engine, Expr, FilterBackend};
//! use rfjson_runtime::fault::{FaultKind, FaultPlan, FaultyBackend, Trigger};
//!
//! // Poison byte 0x07 inside a record triggers a lane panic.
//! let _armed = FaultPlan::new(Trigger::OnByteValue(0x07), FaultKind::Panic).arm();
//! let mut lane = FaultyBackend::<Engine>::compile(&Expr::int_range(1, 5));
//! let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
//!     lane.filter_stream(b"{\"a\":3,\"x\":\"\x07\"}\n")
//! }));
//! assert!(caught.is_err(), "the injected fault fired");
//! ```
//!
//! Arming serialises on a global lock (held by the returned [`ArmedFault`]
//! guard), so concurrent `#[test]`s using the harness do not cross-talk.

use rfjson_core::backend::{
    run_verdict_driver, CompileError, FilterBackend, IngestLimits, Verdict,
};
use rfjson_core::expr::Expr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, PoisonError};

/// When an armed fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire when the lane consumes a byte with this value — the test
    /// plants a poison byte in a chosen record, which makes the fault
    /// land in the same record at every shard count.
    OnByteValue(u8),
    /// Fire when the lane consumes the byte at this 0-based offset of a
    /// single stream-driver call (each `filter_stream*` call restarts
    /// the count).
    AtOffset(u64),
}

/// What happens when the trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The lane panics mid-stream (`panic!` with an
    /// `"injected fault"`-marked payload).
    Panic,
    /// The lane completes but silently drops its last verdict — the
    /// wrong-length output a DMA underrun or truncated result buffer
    /// would produce.
    TruncateOutput,
    /// The lane completes but appends one spurious non-match verdict —
    /// the wrong-length output of a duplicated DMA burst.
    DuplicateOutput,
}

/// A deterministic fault to inject: trigger, kind, and an optional
/// shared fuel budget bounding how many times it may fire process-wide.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// When the fault fires.
    pub trigger: Trigger,
    /// What the fault does.
    pub kind: FaultKind,
    /// Remaining firings, shared across every lane compiled from this
    /// plan (`None` = unlimited). A transient fault (`Some(1)`) fires
    /// once and heals.
    fuel: Option<Arc<AtomicUsize>>,
}

impl FaultPlan {
    /// A plan with unlimited fuel.
    pub fn new(trigger: Trigger, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            trigger,
            kind,
            fuel: None,
        }
    }

    /// Seed-driven plan: trigger offset and fault kind are derived from
    /// `seed` by a splitmix64 step, so property tests can sweep seeds
    /// and still reproduce any failure exactly. The offset lands in
    /// `0..max_offset`.
    pub fn seeded(seed: u64, max_offset: u64) -> FaultPlan {
        let x = splitmix64(seed);
        let kind = match x % 3 {
            0 => FaultKind::Panic,
            1 => FaultKind::TruncateOutput,
            _ => FaultKind::DuplicateOutput,
        };
        FaultPlan::new(Trigger::AtOffset((x >> 2) % max_offset.max(1)), kind)
    }

    /// Bounds the plan to `n` firings process-wide (the fault then
    /// "heals" — later calls run clean).
    pub fn with_fuel(mut self, n: usize) -> FaultPlan {
        self.fuel = Some(Arc::new(AtomicUsize::new(n)));
        self
    }

    /// Arms this plan globally and returns the guard that keeps it
    /// armed. Every [`FaultyBackend`] compiled while the guard lives
    /// snapshots the plan; dropping the guard disarms it.
    pub fn arm(self) -> ArmedFault {
        let serial = ARM_SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        *armed_slot() = Some(self);
        ArmedFault { _serial: serial }
    }

    /// Consumes one unit of fuel; `false` once the budget is spent.
    fn take_fuel(&self) -> bool {
        match &self.fuel {
            None => true,
            Some(fuel) => fuel
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok(),
        }
    }
}

/// One splitmix64 scrambling step (the classic finalizer constants).
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

static ARM_SERIAL: Mutex<()> = Mutex::new(());
static ARMED: Mutex<Option<FaultPlan>> = Mutex::new(None);

fn armed_slot() -> std::sync::MutexGuard<'static, Option<FaultPlan>> {
    ARMED.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Guard returned by [`FaultPlan::arm`]: the plan stays armed (and other
/// armers are blocked) until this is dropped.
#[must_use = "the fault disarms as soon as the guard is dropped"]
pub struct ArmedFault {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for ArmedFault {
    fn drop(&mut self) {
        *armed_slot() = None;
    }
}

/// Installs (once) a panic hook that swallows the `"injected fault"`
/// panics this harness raises on shard threads, while forwarding every
/// other panic to the previous hook — so fault-injection test runs stay
/// readable without hiding real failures.
pub fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let injected = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .is_some_and(|s| s.contains("injected fault"));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// A [`FilterBackend`] wrapper that injects the globally armed
/// [`FaultPlan`] into an otherwise-correct inner backend.
///
/// Compiled with no plan armed, it is a transparent pass-through; with a
/// plan armed, it fires the planned fault when the trigger condition is
/// met (and fuel remains). Decisions on non-faulting paths are exactly
/// the inner backend's.
#[derive(Debug, Clone)]
pub struct FaultyBackend<B> {
    inner: B,
    plan: Option<FaultPlan>,
    /// Bytes consumed since the current stream-driver call began.
    consumed: u64,
    /// A wrong-length fault fired during the current stream call.
    tripped: bool,
}

impl<B> FaultyBackend<B> {
    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The fault plan this lane snapshotted at compile time.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    fn maybe_fire(&mut self, byte: u8) {
        let Some(plan) = &self.plan else { return };
        let hit = match plan.trigger {
            Trigger::OnByteValue(v) => byte == v,
            Trigger::AtOffset(off) => self.consumed == off,
        };
        if hit && plan.take_fuel() {
            match plan.kind {
                FaultKind::Panic => panic!(
                    "injected fault: lane panic at byte offset {} (trigger {:?})",
                    self.consumed, plan.trigger
                ),
                FaultKind::TruncateOutput | FaultKind::DuplicateOutput => self.tripped = true,
            }
        }
    }
}

impl<B: FilterBackend> FilterBackend for FaultyBackend<B> {
    fn compile(expr: &Expr) -> Self {
        FaultyBackend {
            inner: B::compile(expr),
            plan: armed_slot().clone(),
            consumed: 0,
            tripped: false,
        }
    }

    fn try_compile(expr: &Expr) -> Result<Self, CompileError> {
        Ok(FaultyBackend {
            inner: B::try_compile(expr)?,
            plan: armed_slot().clone(),
            consumed: 0,
            tripped: false,
        })
    }

    fn name(&self) -> &'static str {
        "faulty"
    }

    fn expr(&self) -> &Expr {
        self.inner.expr()
    }

    fn on_byte(&mut self, byte: u8) -> bool {
        self.maybe_fire(byte);
        self.consumed += 1;
        self.inner.on_byte(byte)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn flush_telemetry(&mut self) {
        self.inner.flush_telemetry();
    }

    fn filter_stream_verdicts_into(
        &mut self,
        stream: &[u8],
        limits: IngestLimits,
        out: &mut Vec<Verdict>,
    ) {
        // Restart the per-call byte count, run the canonical driver,
        // then apply any pending wrong-length fault to the verdicts
        // appended by *this* call.
        self.consumed = 0;
        self.tripped = false;
        run_verdict_driver(self, stream, limits, out);
        if self.tripped {
            match self.plan.as_ref().map(|p| p.kind) {
                Some(FaultKind::TruncateOutput) => {
                    out.pop();
                }
                Some(FaultKind::DuplicateOutput) => out.push(Verdict::NoMatch),
                _ => {}
            }
            self.tripped = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfjson_core::Engine;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn expr() -> Expr {
        Expr::int_range(1, 5)
    }

    #[test]
    fn transparent_when_disarmed() {
        // Plans are process-global: keep the other tests from arming one
        // while this lane snapshots the slot.
        let _disarmed = ARM_SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let stream: &[u8] = b"{\"a\":3}\n{\"a\":9}\n";
        let mut faulty = FaultyBackend::<Engine>::compile(&expr());
        let mut clean = Engine::compile(&expr());
        assert_eq!(faulty.filter_stream(stream), clean.filter_stream(stream));
        assert!(faulty.plan().is_none());
        assert_eq!(faulty.name(), "faulty");
    }

    #[test]
    fn panic_fault_fires_at_offset_and_respects_fuel() {
        silence_injected_panics();
        let _armed = FaultPlan::new(Trigger::AtOffset(3), FaultKind::Panic)
            .with_fuel(1)
            .arm();
        let mut lane = FaultyBackend::<Engine>::compile(&expr());
        let stream: &[u8] = b"{\"a\":3}\n";
        assert!(
            catch_unwind(AssertUnwindSafe(|| lane.filter_stream(stream))).is_err(),
            "first call panics"
        );
        let decisions = catch_unwind(AssertUnwindSafe(|| lane.filter_stream(stream)))
            .expect("fuel spent: the fault healed");
        assert_eq!(decisions, vec![true]);
    }

    #[test]
    fn truncate_fault_drops_one_verdict() {
        let armed = FaultPlan::new(Trigger::OnByteValue(0x07), FaultKind::TruncateOutput).arm();
        let mut lane = FaultyBackend::<Engine>::compile(&expr());
        let stream: &[u8] = b"{\"a\":3}\n{\"a\":\x07}\n{\"a\":4}\n";
        let verdicts = lane.filter_stream_verdicts(stream, IngestLimits::UNLIMITED);
        assert_eq!(verdicts.len(), 2, "three records, one verdict dropped");
        // Disarmed after the guard drops: recompile runs clean.
        drop(armed);
        let mut clean_lane = FaultyBackend::<Engine>::compile(&expr());
        assert_eq!(clean_lane.filter_stream(stream).len(), 3);
    }

    #[test]
    fn duplicate_fault_appends_one_verdict() {
        let _armed = FaultPlan::new(Trigger::OnByteValue(0x07), FaultKind::DuplicateOutput).arm();
        let mut lane = FaultyBackend::<Engine>::compile(&expr());
        let verdicts = lane.filter_stream_verdicts(b"{\"a\":\x07}\n", IngestLimits::UNLIMITED);
        assert_eq!(verdicts.len(), 2);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        for seed in 0..32 {
            let a = FaultPlan::seeded(seed, 100);
            let b = FaultPlan::seeded(seed, 100);
            assert_eq!(a.trigger, b.trigger);
            assert_eq!(a.kind, b.kind);
            let Trigger::AtOffset(off) = a.trigger else {
                panic!("seeded plans trigger at offsets");
            };
            assert!(off < 100);
        }
        // The sweep hits every fault kind.
        let kinds: std::collections::HashSet<_> = (0..32)
            .map(|s| format!("{:?}", FaultPlan::seeded(s, 100).kind))
            .collect();
        assert_eq!(kinds.len(), 3);
    }
}

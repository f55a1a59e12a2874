//! Property-based battery for the line-oriented decoders that read bytes
//! from another process: `SynthEvent` wire lines (streamed by `glade
//! serve` and printed by `glade synth --events`) and the `OPEN` option
//! body of the serve protocol. Every encoding round-trips exactly, and any
//! truncation or corruption of the bytes decodes to a value or a typed
//! error — never a panic.

#![cfg(any(target_os = "linux", target_os = "macos"))]

use glade_core::serve::OpenRequest;
use glade_core::{SynthEvent, SynthPhase};
use proptest::prelude::*;
use std::time::Duration;

fn arb_phase() -> impl Strategy<Value = SynthPhase> {
    prop_oneof![
        Just(SynthPhase::Phase1),
        Just(SynthPhase::CharGeneralization),
        Just(SynthPhase::Phase2),
    ]
}

/// Every `SynthEvent` variant, with arbitrary field values (durations
/// travel as `u64` nanoseconds, so that is their range).
fn arb_event() -> impl Strategy<Value = SynthEvent> {
    let n = any::<usize>;
    prop_oneof![
        arb_phase().prop_map(|phase| SynthEvent::PhaseStarted { phase }),
        (arb_phase(), any::<u64>(), n()).prop_map(|(phase, nanos, unique_queries)| {
            SynthEvent::PhaseFinished {
                phase,
                elapsed: Duration::from_nanos(nanos),
                unique_queries,
            }
        }),
        (n(), n()).prop_map(|(seed_index, new_stars)| SynthEvent::SeedGeneralized {
            seed_index,
            new_stars
        }),
        n().prop_map(|seed_index| SynthEvent::SeedSkipped { seed_index }),
        (n(), n()).prop_map(|(left_star, right_star)| SynthEvent::MergeAccepted {
            left_star,
            right_star
        }),
        (n(), n()).prop_map(|(elided, memo_hits)| SynthEvent::ProbesElided { elided, memo_hits }),
        (n(), n(), n()).prop_map(|(checks, cached, posed)| SynthEvent::QueryBatch {
            checks,
            cached,
            posed
        }),
        (n(), n()).prop_map(|(new_failures, run_failures)| SynthEvent::OracleFailures {
            new_failures,
            run_failures
        }),
        (n(), n()).prop_map(|(new_timeouts, run_timeouts)| SynthEvent::WorkerHung {
            new_timeouts,
            run_timeouts
        }),
        (n(), n())
            .prop_map(|(new_trips, run_trips)| SynthEvent::BreakerTripped { new_trips, run_trips }),
        (n(), n()).prop_map(|(new_recoveries, run_recoveries)| SynthEvent::BreakerRecovered {
            new_recoveries,
            run_recoveries
        }),
        Just(SynthEvent::BudgetExhausted),
        Just(SynthEvent::Cancelled),
        n().prop_map(|dropped| SynthEvent::EventsDropped { dropped }),
    ]
}

/// Line breaks and ASCII and Unicode whitespace.
const WHITESPACE: [char; 7] = [' ', '\t', '\n', '\r', '\u{85}', '\u{a0}', '\u{3000}'];

/// A char skewed toward ASCII and whitespace (Unicode whitespace and line
/// breaks included), reaching into the whole code-point range.
fn arb_char() -> impl Strategy<Value = char> {
    let code_point = |c: u32| char::from_u32(c).unwrap_or('\u{2028}');
    prop_oneof![
        4 => (0u32..128).prop_map(code_point),
        1 => (0usize..WHITESPACE.len()).prop_map(|i| WHITESPACE[i]),
        1 => (0u32..0x11_0000).prop_map(code_point),
    ]
}

/// Arbitrary text: any chars, whitespace and line breaks included.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_char(), 0..40).prop_map(String::from_iter)
}

/// An oracle spec the client accepts: arbitrary text made one line,
/// trimmed, and nonempty.
fn arb_spec() -> impl Strategy<Value = String> {
    arb_text().prop_map(|raw| {
        let line: String = raw.chars().filter(|c| !matches!(c, '\n' | '\r')).collect();
        match line.trim() {
            "" => "target:xml".to_owned(),
            spec => spec.to_owned(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_wire_lines_round_trip(event in arb_event()) {
        let line = event.to_wire_line();
        prop_assert!(!line.contains('\n'), "one event, one line: {:?}", line);
        prop_assert_eq!(SynthEvent::from_wire_line(&line), Ok(Some(event)));
    }

    #[test]
    fn truncated_or_corrupted_event_lines_never_panic(
        event in arb_event(),
        cut in any::<proptest::sample::Index>(),
        at in any::<proptest::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let line = event.to_wire_line().into_bytes();
        // Every cut, including the empty line (a typed error).
        let cut = cut.index(line.len() + 1);
        let _ = SynthEvent::from_wire_line(&String::from_utf8_lossy(&line[..cut]));
        let mut corrupted = line.clone();
        corrupted[at.index(line.len())] = byte;
        let _ = SynthEvent::from_wire_line(&String::from_utf8_lossy(&corrupted));
    }

    #[test]
    fn arbitrary_text_is_never_a_panic_for_the_event_decoder(text in arb_text()) {
        let _ = SynthEvent::from_wire_line(&text);
    }

    #[test]
    fn open_bodies_round_trip_every_accepted_spec_and_option(
        spec in arb_spec(),
        max_queries in any::<usize>(),
    ) {
        for options in 0..32u32 {
            let mut request = OpenRequest::new(spec.clone());
            request.max_queries = match options & 3 {
                0 => None,
                1 => Some(0),
                2 => Some(max_queries),
                _ => Some(usize::MAX),
            };
            request.memoize = options & 4 == 0;
            request.events = options & 8 == 0;
            request.cache = options & 16 != 0;
            prop_assert!(request.check_oracle_spec().is_ok(), "{:?}", spec);
            let decoded = OpenRequest::from_body(&request.to_body());
            prop_assert_eq!(decoded.ok(), Some(request));
        }
    }

    #[test]
    fn truncated_or_corrupted_open_bodies_never_panic(
        spec in arb_spec(),
        cut in any::<proptest::sample::Index>(),
        at in any::<proptest::sample::Index>(),
        byte in any::<u8>(),
        junk in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut request = OpenRequest::new(spec);
        request.max_queries = Some(7);
        request.memoize = false;
        request.events = false;
        request.cache = true;
        let body = request.to_body();
        let _ = OpenRequest::from_body(&body[..cut.index(body.len() + 1)]);
        let mut corrupted = body.clone();
        corrupted[at.index(body.len())] = byte;
        let _ = OpenRequest::from_body(&corrupted);
        let _ = OpenRequest::from_body(&junk);
    }
}

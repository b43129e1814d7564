# Developer entry points. `make verify` is the tier-1 gate from ROADMAP.md.

.PHONY: verify lint test test-baselines test-crates bench-smoke perf-pairs trace-smoke daemon-smoke docs doc-tests loc clean

# Tier-1: release build + the root package's quiet test run, plus the
# trace and daemon round-trip smokes, a warning-free lint/format gate,
# and the doc gates (rustdoc warnings — including broken intra-doc
# links — fail the build, and every worked example must execute), the
# crates' own suites (`make test-crates`). Ends by printing the tracked
# non-test line count (`make loc`).
verify: trace-smoke daemon-smoke lint docs doc-tests
	cargo build --release
	cargo test -q
	$(MAKE) test-baselines
	$(MAKE) test-crates
	$(MAKE) loc

# Zero-warning clippy across every target, and formatting is canonical —
# in the workspace and in the benchmark package (its own workspace over the
# crates' public API), so a crate-API change that breaks the benchmark
# fails here rather than in the benchmark run.
lint:
	cargo clippy --workspace --all-targets -- -D warnings
	cargo fmt --check
	cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
	cargo fmt --manifest-path perfbench/Cargo.toml --check

# The baseline-discipline invariants at release speed: the fair-share
# production-vs-naive differential matrix and the RepFlow
# dominance/degeneracy property suite.
test-baselines:
	cargo test --release --test fairshare_differential
	cargo test --release --test repflow_props

# Each crate's `#[cfg(test)]` unit tests and its own suites under
# `crates/*/tests` (props, tie_break, champion_props and table_index_props
# in basrpt-core; calendar_props in dcn-fabric), at release speed. The root
# package's tests run in `verify`'s `cargo test -q`. basrpt-core's run
# again in a debug build: there `Ranking::check_clean` re-reads every
# matched VOQ a certified decision left unread and asserts the premise it
# rests on (champion, no key rise, carried key within the drift, admission
# order), a check release builds compile out.
test-crates:
	cargo test --release --workspace --exclude basrpt --lib --tests
	cargo test -p basrpt-core --lib --tests

# The full workspace test suite (unit + integration + property + doctests).
test:
	cargo test --workspace

# One quick pass over the headline experiments at smoke scale, then the
# perf-regression gate: freshly recorded medians of the event_loop,
# delta_reschedule and settle_cost groups must stay within 1.5x of the
# committed results/bench.json (snapshotted before the benches rewrite it).
bench-smoke:
	@mkdir -p target
	cp results/bench.json target/bench-baseline.json
	BASRPT_SCALE=quick cargo bench -p basrpt-bench --bench fig2
	BASRPT_SCALE=quick cargo bench -p basrpt-bench --bench fig5
	BASRPT_SCALE=quick cargo bench -p basrpt-bench --bench table1
	BASRPT_SCALE=quick cargo bench -p basrpt-bench --bench sched_overhead
	BASRPT_SCALE=quick cargo bench -p basrpt-bench --bench fabric_scale
	BASRPT_SCALE=quick cargo bench -p basrpt-bench --bench daemon_throughput
	BASRPT_SCALE=quick cargo bench -p basrpt-bench --bench baseline_disciplines
	cargo run --release -p basrpt-bench --bin perf_gate -- target/bench-baseline.json

# Alternating perfbench pairs of two checkouts on one workload and seed
# (`perf_pairs.py`): the parent's median and quartiles, the change's
# median and how many pairs read lower, per end-to-end metric. PARENT is
# a checkout of the parent commit. Without it, HEAD (the parent of
# uncommitted work) is extracted with `git archive` into
# target/perf-parent/<sha>, or that extraction reused.
WORKLOAD ?= paper_basrpt
SEED ?= 1
PAIRS ?= 10
RUN_SECONDS ?= 30
CHANGE ?= .
perf-pairs:
	@parent="$(PARENT)"; \
	if [ -z "$$parent" ]; then \
		sha=$$(git rev-parse --verify "HEAD^{commit}") || exit 1; \
		parent=target/perf-parent/$$sha; \
		if [ ! -d "$$parent" ]; then \
			rm -rf "$$parent.part" && mkdir -p "$$parent.part" && \
			git archive "$$sha" | tar -x -C "$$parent.part" && \
			mv "$$parent.part" "$$parent" || exit 1; \
		fi; \
	fi; \
	echo "parent: $$parent"; \
	python3 perf_pairs.py "$$parent" $(CHANGE) --workload $(WORKLOAD) \
		--seed $(SEED) --pairs $(PAIRS) --seconds $(RUN_SECONDS)

# Short traced simulation: streams every event to JSONL, re-parses each
# emitted line and exits non-zero on any schema violation.
trace-smoke:
	cargo run --release --example trace_run target/trace-smoke

# Runs the daemon's input-parsing unit tests, then pipes the sample flows
# file through the streaming daemon; `--validate` re-parses every emitted
# completion line with `dcn_probe::jsonl::parse_line` and the daemon exits
# non-zero on any schema violation or count mismatch.
daemon-smoke:
	cargo test --release --example daemon
	BASRPT_HORIZON_MS=50 cargo run --release --example daemon -- \
		examples/daemon_flows.txt --validate > /dev/null

# API docs for the workspace crates; `-D warnings` turns every rustdoc
# warning (broken intra-doc links above all) into a hard failure.
docs:
	RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Every rustdoc worked example across the workspace, compiled and run.
doc-tests:
	cargo test --workspace --doc -q

# Non-test code lines per crate: non-blank, non-`//` lines of every `.rs`
# file under the crate's src/, up to the file's first `#[cfg(test)]`.
loc:
	@total=0; for dir in crates/*/src; do \
		n=$$(find $$dir -name '*.rs' | xargs -n1 awk '/^#\[cfg\(test\)\]/{exit} !/^[[:space:]]*$$/ && !/^[[:space:]]*\/\//{n++} END{print n+0}' | awk '{s+=$$1} END{print s}'); \
		printf '%6d  %s\n' $$n $$(dirname $$dir); total=$$((total + n)); \
	done; printf '%6d  total\n' $$total

clean:
	cargo clean

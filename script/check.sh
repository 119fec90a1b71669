#!/bin/sh
# Tier-1 gate: everything must pass before a change lands.
#
#	./script/check.sh        # or: make check
#
# Runs vet, a full build, and the test suite with the race detector —
# the obs registry and the parallel replay analyzer are exercised from
# many goroutines, so -race is part of the gate, not an extra.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

# internal/replay keeps nine exported ways in — the names bench/ and the
# CLIs call — all of them shims over one loader and one analysis. A
# tenth is a mode creeping back: fold it into the existing ones.
echo "== replay entry-point allowlist"
allowed=" Analyze AnalyzeArchive AnalyzeArchiveContext AnalyzeContext AnalyzeLazy LoadArchive LoadArchiveLazy LoadArchiveLazyCtx LoadArchiveObs "
for f in internal/replay/*.go; do
	case "$f" in *_test.go) continue ;; esac
	for name in $(sed -n -E 's/^func ((LoadArchive|Analyze)[A-Za-z0-9_]*)\(.*/\1/p' "$f"); do
		case "$allowed" in
		*" $name "*) ;;
		*)
			echo "check: internal/replay exports $name, which is not on the entry-point allowlist" >&2
			exit 1
			;;
		esac
	done
done

# A rank log is fed by one block step, rankLog.pull in cursor.go, whether
# the image is complete (lazy analysis) or still uploading (live
# session), and a live stream is v2 blocks only.
echo "== one block step"
for f in internal/replay/*.go; do
	case "$f" in *_test.go | internal/replay/cursor.go) continue ;; esac
	if grep -n -E '\.NextInto\(|BlockReader\.Next\(' "$f"; then
		echo "check: $f decodes blocks itself: a second block step is a feeder mode creeping back (call rankLog.pull)" >&2
		exit 1
	fi
done
if grep -n 'decodeEvent(' internal/trace/chunk.go; then
	echo "check: internal/trace/chunk.go decodes v1 rows: the streaming path is v2 blocks only" >&2
	exit 1
fi
# Block storage is allocated in one place, newBlock, behind rankLog.room,
# which first looks for a block the sweep has released. (selftrace.go
# builds the analyzer's own trace, not a log block.)
for f in internal/replay/*.go; do
	case "$f" in *_test.go | internal/replay/selftrace.go) continue ;; esac
	if grep -n -F 'make([]trace.Event' "$f" | grep -v 'func newBlock('; then
		echo "check: $f allocates event storage outside newBlock: a second block allocation site bypasses the free list" >&2
		exit 1
	fi
done

# A rank's replay is a stepper under one scheduler (sched.go): a step
# that would block returns why, and whoever unblocks it re-queues it — a
# put, the last member of a gather, the feeder that published to the
# rank's log, an abort. The scheduler alone records who waits on what. A
# condition variable, an abort channel, pprof.Do or a second place that
# starts runners is a goroutine-per-rank mode creeping back.
echo "== one scheduler"
starts=0
for f in internal/replay/*.go; do
	case "$f" in *_test.go) continue ;; esac
	if grep -n -E 'sync\.Cond|abortCh|pprof\.Do\(' "$f"; then
		echo "check: $f waits on a condition variable or an abort channel: park the step and let the scheduler re-queue it" >&2
		exit 1
	fi
	starts=$((starts + $(grep -c -F 'go a.runner(' "$f" || true)))
done
if [ "$starts" -ne 1 ]; then
	echo "check: internal/replay starts runners in $starts places: the one site is analyzer.start" >&2
	exit 1
fi

# An analysis is aborted in one place: analyzer.cause, one atomic
# pointer to the first cause, which the steps' poll and the scheduler's
# re-queue and deadlock rules read. A rank log knows neither the scheduler
# nor aborts (a sweep stops at its step's poll), and a context reaches the
# analyzer through context.AfterFunc, not a watcher goroutine of its own.
echo "== one abort"
if grep -n -i -E 'sched|abort' internal/replay/cursor.go; then
	echo "check: internal/replay/cursor.go names the scheduler or an abort: the scheduler records who waits on a log, and a sweep stops at its step's poll" >&2
	exit 1
fi
decls=0
for f in internal/replay/*.go; do
	case "$f" in *_test.go) continue ;; esac
	decls=$((decls + $(grep -c -E '^[[:space:]]*(aborted|abortOnce|cause)[[:space:]]+[][A-Za-z*.]' "$f" || true)))
	if grep -n -E 'watchDone|<-[A-Za-z.]*ctx\.Done\(\)' "$f"; then
		echo "check: $f watches a context by hand: use context.AfterFunc" >&2
		exit 1
	fi
done
if [ "$decls" -ne 1 ]; then
	echo "check: internal/replay declares abort state $decls times: the one is analyzer.cause" >&2
	exit 1
fi

# A replayed or validated event costs no hash: a mailbox finds a
# signature by binary search over its FIFOs sorted by sender, a call path
# comes from the tree's sorted child links, a communicator or a region
# from a table indexed by id (trace.RegionTable), and a grid wait's
# metahost pair from the call path's dense row indexed by metahost column.
# A map in the sweep's files — keyed by signature, communicator, region
# id or metahost pair (pairKey), or the call-path map byKey — is a
# per-event hash creeping back, and a map ranged over while a report is
# built makes its bytes depend on map order.
echo "== no hash per event"
if grep -n -E 'map\[|pairKey|byKey' internal/replay/worker.go || grep -n -E 'map\[(sig|int32|trace\.RegionID)\]|byKey' internal/replay/cursor.go; then
	echo "check: the replay sweep keeps a map again: look it up in a sorted or dense table" >&2
	exit 1
fi
if grep -n -F 'map[RegionID]' internal/trace/validator.go; then
	echo "check: internal/trace/validator.go looks regions up in a map again: use the header's RegionTable" >&2
	exit 1
fi

# A collective costs each participant O(1), however large its
# communicator: the member that completes a gather summarizes its enters
# once (collGather.summarize), a participant scores from that summary,
# and a rank finds its communicator rank in the membership index
# (analyzer.commRank). A loop over g.enters in scoreCollective, or a
# slices.Index over a member list in the sweep's file, is the scan per
# member — O(P) per rank per collective — creeping back. A communicator's
# two gathers serve all its instances, so a collGather made in the
# sweep's file is an allocation per instance creeping back.
echo "== linear collectives"
if awk '/^func / { fn = $0 } /^}/ { fn = "" }
	fn ~ /^func \(st \*stepper\) scoreCollective\(/ && /for .*g\.enters|range g\.enters/ { print FILENAME ":" FNR ": " $0; bad = 1 }
	END { exit !bad }' internal/replay/worker.go; then
	echo "check: scoreCollective loops over the gather's enters: score from the summary the completing member computed" >&2
	exit 1
fi
if grep -n -E 'slices\.Index(Func)?\(' internal/replay/worker.go; then
	echo "check: internal/replay/worker.go scans a member list: find a communicator rank through analyzer.commRank" >&2
	exit 1
fi
if grep -n -E '&collGather\{|new\(collGather\)' internal/replay/worker.go; then
	echo "check: internal/replay/worker.go makes a collGather: use one of the communicator's two gathers" >&2
	exit 1
fi

# The phase search is linear in what it reads: an op finds its atom by a
# forward cursor, a kind set is a short slice, and the candidates share
# one failure table per trim start. A map in internal/phase/phase.go is a
# hash per op or per atom creeping back.
echo "== no map in the phase search"
if grep -n -F 'map[' internal/phase/phase.go; then
	echo "check: internal/phase/phase.go builds a map: keep the search's sets in slices" >&2
	exit 1
fi

# A live rank publishes in one place, stepper.publish, taken when a step
# returns and at the sweep's 1024-event poll: it folds what the sweep
# scored since the last publication into the window sink, then stores the
# rank's frontier and swept event count; finish stores +Inf for a rank
# that is done. A frontier or swept-count store or a sink deposit anywhere
# else — in the sweep's per-event switch above all — is a publication per
# event creeping back.
echo "== one publication point"
for f in internal/replay/*.go; do
	case "$f" in *_test.go) continue ;; esac
	if awk '/^func /{fn=$0} /(progress|sweptEvents)\[[^]]*\]\.Store\(|sink\.(fold|add|deposit[A-Za-z]*)\(/{ if (fn !~ /^func \(st \*stepper\) (publish|finish)\(/) { print FILENAME ":" FNR ": " $0; bad=1 } } END{exit !bad}' "$f"; then
		echo "check: $f stores a rank's frontier or deposits into the window sink outside stepper.publish and stepper.finish" >&2
		exit 1
	fi
done

# A live session's facts are kept once. The engine, replay.Live, keeps
# the stream it emits (Live.Events) and reads a rank's ingested count and
# last ingested time from the rank's log, and counts each rank's bytes;
# serve keeps the SSE framing, the resume point and the chunk protocol. A
# callback in LiveConfig, a type in serve that holds stream events, an
# event counter or an ingest time in liveRank, or a byte or event counter
# in serve's sessRank is a second copy of the stream or of the log creeping
# back.
echo "== one session record"
structbody() { # file, type: the lines inside the struct's braces
	awk -v t="$2" '$0 ~ "^type " t " struct [{]" { inb = 1; next } inb && /^}/ { inb = 0 } inb' "$1"
}
if structbody internal/replay/live.go LiveConfig | grep -n -E '^[[:space:]]*[A-Za-z_][A-Za-z0-9_, ]*[[:space:]]func[[:space:]]*\('; then
	echo "check: replay.LiveConfig declares a func field: a session's owner reads the stream it keeps (Live.Events)" >&2
	exit 1
fi
if structbody internal/replay/live.go liveRank | grep -n -E '^[[:space:]]*([A-Za-z0-9_]+,[[:space:]]*)*[A-Za-z0-9_]*([Ee]vent|[Ii]ngest)[A-Za-z0-9_]*[[:space:],]'; then
	echo "check: liveRank declares an event counter or an ingest time: read the rank log's published count and bounds" >&2
	exit 1
fi
if structbody internal/serve/session.go sessRank | grep -n -E '^[[:space:]]*([A-Za-z0-9_]+,[[:space:]]*)*[A-Za-z0-9_]*([Bb]yte|[Ee]vent)[A-Za-z0-9_]*[[:space:],]'; then
	echo "check: serve's sessRank declares a byte or event counter: the engine counts a rank's bytes and events (replay.Live.Rank)" >&2
	exit 1
fi
for f in internal/serve/*.go; do
	case "$f" in *_test.go) continue ;; esac
	if awk '/^type / { inb = /[{(]$/; if (/replay\.StreamEvent/) { print FILENAME ":" FNR ": " $0; bad = 1 }; next }
		inb && /^[})]/ { inb = 0 }
		inb && /replay\.StreamEvent/ { print FILENAME ":" FNR ": " $0; bad = 1 }
		END { exit !bad }' "$f"; then
		echo "check: $f declares a type that holds stream events: the engine keeps the stream (replay.Live.Events)" >&2
		exit 1
	fi
done

# A ledger record is written once, into the page it stays in: the three
# per-rank logs (profLog, recvLog, opLog) are pagedLogs, filled through
# add. An append onto one of them is a log that moves — copied at every
# growth step, four times its final size allocated — creeping back, and
# pages come from one place, pagedLog.open.
echo "== ledger never regrows"
pagesites=0
for f in internal/replay/*.go; do
	case "$f" in *_test.go) continue ;; esac
	if grep -n -E 'append\([A-Za-z.]*\.(profLog|recvLog|opLog)\b|\.(profLog|recvLog|opLog)(\.pages)? *= *(append|make)\(' "$f"; then
		echo "check: $f appends to or reallocates a ledger log: write records through pagedLog.add" >&2
		exit 1
	fi
	pagesites=$((pagesites + $(grep -c -F 'make([]T, 0, ' "$f" || true)))
done
if [ "$pagesites" -ne 1 ]; then
	echo "check: internal/replay allocates ledger pages in $pagesites places: the one site is pagedLog.open" >&2
	exit 1
fi

# The severity ledger — every rank's deferred sample log, then the
# wrong-order post-pass — is read once, by result() in build.go, on one
# goroutine, into one profile accumulator and one phase accumulator. A
# second accumulator, a merge or a goroutine there is a second reader of
# the ledger: a mode creeping back.
echo "== one ledger fold"
profs=0
phases=0
for f in internal/replay/*.go; do
	case "$f" in *_test.go) continue ;; esac
	profs=$((profs + $(grep -c -F 'profile.NewAccumulator(' "$f" || true)))
	phases=$((phases + $(grep -c -F 'phase.NewAccumulator(' "$f" || true)))
	if grep -n -F '.Merge(' "$f"; then
		echo "check: $f merges accumulators: per-rank accumulators are a second reader of the ledger creeping back" >&2
		exit 1
	fi
done
if [ "$profs" -gt 1 ] || [ "$phases" -gt 1 ]; then
	echo "check: internal/replay builds $profs profile and $phases phase accumulators: the ledger has one reader (result in build.go)" >&2
	exit 1
fi
if grep -n -F 'Merge(' internal/profile/profile.go; then
	echo "check: profile.Accumulator can be merged again: the analyzer feeds one accumulator, in one order" >&2
	exit 1
fi
if grep -n 'go func' internal/replay/build.go; then
	echo "check: internal/replay/build.go starts a goroutine: a second reader of the ledger is a mode creeping back" >&2
	exit 1
fi

# A time-resolved profile has one axis per analysis: origin, bucket width
# and bucket count are fixed when the accumulator is built (the analyzer
# sizes them from the finished run, repair shifts included), and a sample
# outside the axis is clamped onto an edge bucket. A fold or widen
# function, or a width changed anywhere but where Config.normalized fills
# the default, is the doubling accumulator creeping back.
echo "== one profile axis"
for f in internal/profile/*.go; do
	case "$f" in *_test.go) continue ;; esac
	if grep -n -i -E '^func (\([^)]*\) )?(fold|widen)' "$f"; then
		echo "check: $f declares a fold or widen: a profile's axis is fixed when its accumulator is built" >&2
		exit 1
	fi
	if awk '/^func / { fn = $0 } /^}/ { fn = "" }
		{ code = $0; gsub(/"([^"\\]|\\.)*"|`[^`]*`|\/\/.*/, "", code) }
		code ~ /[Ww]idth[[:space:]]*([-+*\/%]|<<|>>)?=([^=]|$)/ && fn !~ /^func \(c Config\) normalized\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
		END { exit !bad }' "$f"; then
		echo "check: $f changes a bucket width after the accumulator is built: clamp onto an edge bucket instead" >&2
		exit 1
	fi
done

# The profile and phase artifacts have one writer each, which appends
# the JSON field by field (internal/jsonw) and is held to
# json.MarshalIndent's bytes by a property test. A json.Marshal in either
# file's non-test code is the reflective render, or a fallback to it,
# creeping back; Read keeps encoding/json's decoder.
echo "== one artifact writer"
for f in internal/profile/artifact.go internal/phase/artifact.go; do
	if grep -n 'json\.Marshal' "$f" | grep -v '^[0-9]*:[[:space:]]*//'; then
		echo "check: $f calls json.Marshal: the artifact has one writer, WriteJSON over internal/jsonw" >&2
		exit 1
	fi
done

# An uploaded trace byte is written twice — once as it arrives
# compressed, once as it is inflated into the buffer the in-memory file
# system adopts — and from then on only lent (archive.Borrow). An
# io.ReadAll in the bundle decoder is an entry regrown from 512 bytes
# again; an archive.ReadFile in the service or the loader is a copy of a
# file that only gets read.
echo "== one intake copy"
if grep -n -F 'io.ReadAll(' internal/serve/bundle.go; then
	echo "check: internal/serve/bundle.go reads an entry with io.ReadAll: inflate it once, at its declared size (inflate)" >&2
	exit 1
fi
for f in internal/serve/*.go internal/replay/*.go; do
	case "$f" in *_test.go) continue ;; esac
	if grep -n -F 'archive.ReadFile(' "$f"; then
		echo "check: $f copies a file it only reads: borrow it (archive.Borrow)" >&2
		exit 1
	fi
done

# Host files are opened at the pipeline's edges only: the command
# (cmd/metascope) for reports and artifacts, the archive file systems
# (internal/archive) for experiment archives, and the obs flags
# (internal/obs/cli.go) for -metrics-out and -trace-out. A library
# package that opens, creates or lists host files takes an io.Reader, an
# io.Writer or an archive.FS instead. Runtime gauges are read when a
# snapshot or /metrics renders them, so obs runs no ticker either.
echo "== one place opens files"
for f in $(find internal -name '*.go' ! -name '*_test.go'); do
	case "$f" in internal/archive/* | internal/obs/cli.go) continue ;; esac
	if grep -n -H -E 'os\.(Create|Open|OpenFile|MkdirAll|ReadFile|WriteFile|ReadDir)\(' "$f"; then
		echo "check: $f opens host files itself: take an io.Reader, io.Writer or archive.FS and let the command open the file" >&2
		exit 1
	fi
done
if grep -rn --include='*.go' -F 'time.NewTicker' internal/obs | grep -v '_test\.go:'; then
	echo "check: internal/obs starts a ticker: runtime gauges are read when rendered (Registry.GaugeFunc)" >&2
	exit 1
fi

# The service answers 20 routes over one store of analyses, whichever
# feeder — job or live session — produced them. A 21st is a mode
# creeping back: serve it from a handler that already resolves by id.
echo "== serve route cap"
routes=$(grep -c 's\.mux\.HandleFunc(' internal/serve/serve.go)
if [ "$routes" -gt 20 ]; then
	echo "check: internal/serve/serve.go registers $routes routes, over the cap of 20" >&2
	exit 1
fi

# A finished analysis is kept in one place, the analyses store, which
# settle holds to CacheEntries records and which answers a resubmission
# from a kept job. A list, a sync.Map or a second map of analyses or
# results is a second cache creeping back, with a bound and a lock of its
# own.
echo "== one result store"
for f in internal/serve/*.go; do
	case "$f" in *_test.go) continue ;; esac
	if grep -n -E '"container/list"|sync\.Map' "$f"; then
		echo "check: $f keeps a list or a sync.Map: finished analyses live in Server.analyses" >&2
		exit 1
	fi
	if grep -n -E 'map\[[^]]*\](feeder|\*job|\*session|\*analysis|\*replay\.Result|\*cube\.Report|any)([^A-Za-z0-9_]|$)' "$f" | grep -v -F 'analyses'; then
		echo "check: $f declares a map of analyses or results besides Server.analyses: a second result store" >&2
		exit 1
	fi
done

# Every log line goes through one logger, obs.Logger, which is log/slog's
# text handler without the time key (internal/obs/log.go), so go vet
# checks the key/value pairs of every call. A logger that formats lines
# itself, or the standard log package in a program file, is a second
# logger creeping back.
echo "== one logger"
if ! grep -q '"log/slog"' internal/obs/log.go; then
	echo "check: internal/obs/log.go does not import log/slog: the logger is slog's text handler" >&2
	exit 1
fi
stdlog=$(grep -rl -E --include='*.go' '^[[:space:]]*(import[[:space:]]+)?([A-Za-z_.]+[[:space:]]+)?"log"[[:space:]]*$' . | grep -v '_test\.go$' || true)
if [ -n "$stdlog" ]; then
	echo "check: these files import the standard log package; log through obs (obs.Fatal on a fatal path):" >&2
	echo "$stdlog" >&2
	exit 1
fi

# The toolchain is one command, cmd/metascope, whose verbs each live in
# a file of their own as a function of (ctx, args, stdout). main.go
# alone sets up what every verb shares: the signal context, the obs
# flags on the verb's flag set, the -trace-out archive hook, the flush
# and the fatal line. A second main package, a second registration of
# the obs flags, or a verb that reads the global flag set or writes
# os.Stdout itself is a per-tool copy of that set-up creeping back.
echo "== one binary"
mains=$(grep -l -E '^package main$' $(find cmd -name '*.go' ! -name '*_test.go') | xargs -n1 dirname | sort -u)
if [ "$(echo "$mains" | wc -l)" -ne 1 ]; then
	echo "check: cmd/ holds more than one main package; add a verb to cmd/metascope instead:" >&2
	echo "$mains" >&2
	exit 1
fi
if grep -rn --include='*.go' -F 'obs.RegisterCLIFlags(' . | grep -v -E '^\./(cmd/metascope/main\.go|examples/quickstart/)'; then
	echo "check: the obs CLI flags are registered outside cmd/metascope/main.go: register them once, in dispatch" >&2
	exit 1
fi
for f in cmd/metascope/*.go; do
	case "$f" in cmd/metascope/main.go) continue ;; esac
	if grep -n -E 'flag\.CommandLine|flag\.Parse\(\)|os\.Stdout' "$f"; then
		echo "check: $f reads the global flag set or writes os.Stdout: a verb takes its flags from its FlagSet and writes to the stdout it is given" >&2
		exit 1
	fi
done

# The docs are only worth reading if a reader can take them at their
# word. DESIGN.md and EXPERIMENTS.md stay short enough to read whole;
# DESIGN.md and README.md say what the code is, not which change made it
# so (that is git's and EXPERIMENTS.md's); and every name they give in
# backticks exists: a repo path (globs expand; a bare *.go name anywhere
# in the tree), a pkg.Ident declared in that package's non-test files
# (and the member after it, if any, named there), a -flag of the
# metascope verb a command line names. A name the code no longer has is
# a doc describing what was.
echo "== docs describe what is"
docs_tmp=$(mktemp -d)
trap 'rm -rf "$docs_tmp"' EXIT
go build -o "$docs_tmp/metascope" ./cmd/metascope
bad=0
for f in DESIGN.md EXPERIMENTS.md; do
	if [ "$(wc -l <"$f")" -gt 1000 ]; then
		echo "check: $f is $(wc -l <"$f") lines, over 1000: say what the code is, not how it got there" >&2
		bad=1
	fi
done
if grep -n -E '\bPR [0-9]+' DESIGN.md README.md; then
	echo "check: DESIGN.md or README.md names a PR: describe the code; its history is git's and EXPERIMENTS.md's" >&2
	bad=1
fi
spans=$(grep -o -h '`[^`]*`' README.md DESIGN.md | tr -d '`' | sort -u)
while IFS= read -r s; do
	case "$s" in
	'' | *[[:space:]]*) continue ;;
	internal/* | cmd/* | bench/* | script/* | examples/*)
		# shellcheck disable=SC2086 # the span may be a glob
		ls -d ${s%/} >/dev/null 2>&1 || { echo "check: the docs name $s, which does not exist" >&2; bad=1; }
		continue
		;;
	[A-Z]*.md | [A-Z]*.json)
		[ -e "$s" ] || { echo "check: the docs name $s, which does not exist" >&2; bad=1; }
		continue
		;;
	*.go)
		[ -n "$(find . -name "$s" -not -path './.git/*')" ] || { echo "check: the docs name $s, which does not exist" >&2; bad=1; }
		continue
		;;
	esac
	ref=$(echo "$s" | sed -n -E 's/^([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)(\.([A-Za-z_][A-Za-z0-9_]*))?.*/\1 \2 \4/p')
	[ -n "$ref" ] || continue
	set -- $ref
	if [ "$1" = metascope ]; then
		dir=.
	else
		dir=$(find internal cmd -type d -name "$1" | head -n 1)
		[ -n "$dir" ] || continue # not one of ours: json.Marshal, context.AfterFunc
	fi
	files=$(ls "$dir"/*.go 2>/dev/null | grep -v '_test\.go$' || true)
	[ -n "$files" ] || continue
	# shellcheck disable=SC2086
	if ! awk -v id="$2" '
		/^(var|const|type) \($/ { blk = 1; next }
		blk && /^\)/ { blk = 0; next }
		blk { n = $1; sub(/[^A-Za-z0-9_].*/, "", n); if (n == id) found = 1; next }
		/^(func|type|var|const) / { n = $2; if ($1 == "func" && n ~ /^\(/) next; sub(/[^A-Za-z0-9_].*/, "", n); if (n == id) found = 1 }
		END { exit !found }' $files; then
		echo "check: the docs name $1.$2, which $dir does not declare" >&2
		bad=1
	elif [ $# -eq 3 ] && ! grep -q -w -- "$3" $files; then
		echo "check: the docs name $1.$2.$3, which $dir does not mention" >&2
		bad=1
	fi
done <<EOF
$spans
EOF
# Flags of metascope command lines, in backticks or in fenced blocks.
awk '
	function emit(s,   n, w, i, f) {
		sub(/ (#|\||&&|;).*/, "", s)
		n = split(s, w, /[ \t]+/)
		for (i = 3; i <= n; i++) if (w[i] ~ /^-[a-z]/) {
			f = w[i]; sub(/[^a-z0-9-].*/, "", f); print w[2], f
		}
	}
	/^```/ { fence = !fence; next }
	fence {
		line = (cont ? cont " " : "") $0; cont = ""
		if (line ~ /\\$/) { cont = substr(line, 1, length(line) - 1); next }
		if (match(line, /(^|[^A-Za-z0-9_-])metascope [a-z]+/)) emit(substr(line, RSTART + (RSTART > 1 || substr(line, 1, 1) != "m")))
		next
	}
	{
		line = $0
		while (match(line, /`metascope [a-z]+[^`]*`/)) {
			emit(substr(line, RSTART + 1, RLENGTH - 2)); line = substr(line, RSTART + RLENGTH)
		}
	}' README.md DESIGN.md EXPERIMENTS.md | sort -u >"$docs_tmp/flags"
while read -r verb flag; do
	[ -f "$docs_tmp/$verb.h" ] || "$docs_tmp/metascope" "$verb" -h >"$docs_tmp/$verb.h" 2>&1 || true
	if ! grep -q "^Usage of metascope $verb:" "$docs_tmp/$verb.h"; then
		echo "check: the docs run metascope $verb, which is not a verb" >&2
		bad=1
	elif [ "$flag" != -h ] && ! grep -q -E -- "^  $flag( |\$)" "$docs_tmp/$verb.h"; then
		echo "check: the docs pass $flag to metascope $verb, which registers no such flag" >&2
		bad=1
	fi
done <"$docs_tmp/flags"
if [ "$bad" -ne 0 ]; then
	exit 1
fi

# Every internal package must carry tests: the conformance harness can
# only vouch for code the suite actually reaches.
echo "== test coverage presence (internal/...)"
untested=$(go list -f '{{if and (not .TestGoFiles) (not .XTestGoFiles)}}{{.ImportPath}}{{end}}' ./internal/...)
if [ -n "$untested" ]; then
	echo "check: internal packages without any test files:" >&2
	echo "$untested" >&2
	exit 1
fi

# -shuffle=on randomizes test (and subtest-sibling) execution order so
# accidental inter-test dependencies surface in CI instead of in the
# field; failures print the seed for reproduction.
echo "== go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

# Every step from here on runs something the full run above does not.
# A step that re-runs one of its tests by name only adds wall time: it
# does not guard a rename either, because `go test -run NAME` exits 0
# when nothing matches.

# A short soak of the analysis service: a couple of seconds of mixed
# concurrent traffic (good archives, hostile uploads, cancellations)
# with oracle-exact verification and a goroutine-leak check at the
# end. `make soak` runs the minutes-long version of the same test.
echo "== serve soak (short)"
METASCOPE_SOAK_SECONDS=2 go test -race -count=1 -run 'TestServeSoak' ./internal/serve

# One iteration of every benchmark: catches benchmarks that rot (fail
# to compile or crash) without paying for a real measurement run. The
# phase search's benchmark must be among them, on both of its shapes,
# and the ranks-scaling one at 1024 ranks.
echo "== go test -bench . -benchtime=1x (smoke)"
out=$(go test -run '^$' -bench . -benchtime=1x ./...)
for shape in ragged-192x256 silenced-32x1000; do
	echo "$out" | grep -q "^BenchmarkDetect/$shape" || { echo "check: BenchmarkDetect/$shape did not run" >&2; exit 1; }
done
echo "$out" | grep -q "^BenchmarkAnalyzeRanks/1024" || { echo "check: BenchmarkAnalyzeRanks/1024 did not run" >&2; exit 1; }

# The flight recorder's contract is that a disabled recorder is free:
# instrumented hot paths (every mailbox put/take in the parallel
# replay) must not allocate when tracing is off. Gate on the benchmark
# so a stray fmt.Sprintf or interface boxing in the Emit path fails CI
# rather than taxing every analysis run.
echo "== flight recorder zero-alloc gate (disabled path)"
out=$(go test -run '^$' -bench 'BenchmarkFlightDisabled$' -benchmem -benchtime=100000x ./internal/obs/flight)
echo "$out" | grep 'BenchmarkFlightDisabled' || { echo "check: zero-alloc benchmark did not run" >&2; exit 1; }
if ! echo "$out" | grep 'BenchmarkFlightDisabled' | grep -q '\b0 allocs/op'; then
	echo "check: disabled flight recorder allocates on the hot path" >&2
	exit 1
fi

# The v2 block decoder is the per-event hot path of lazy analysis: a
# sweep decodes every block into a caller-provided buffer, so the
# decoder itself must not allocate per call. Gate it exactly like the
# flight recorder's disabled path.
echo "== v2 block decode zero-alloc gate"
out=$(go test -run '^$' -bench 'BenchmarkV2BlockDecode$' -benchmem -benchtime=10000x ./internal/trace)
echo "$out" | grep 'BenchmarkV2BlockDecode' || { echo "check: v2 block decode benchmark did not run" >&2; exit 1; }
if ! echo "$out" | grep 'BenchmarkV2BlockDecode' | grep -q '\b0 allocs/op'; then
	echo "check: v2 block decode allocates per block" >&2
	exit 1
fi

# The validating path a rank log pulls through — NextInto decodes and
# validates a block in the same passes — must not allocate either when
# the caller hands it a reused block.
echo "== v2 block ingest zero-alloc gate"
out=$(go test -run '^$' -bench 'BenchmarkV2BlockIngest$' -benchmem -benchtime=10000x ./internal/trace)
echo "$out" | grep 'BenchmarkV2BlockIngest' || { echo "check: v2 block ingest benchmark did not run" >&2; exit 1; }
if ! echo "$out" | grep 'BenchmarkV2BlockIngest' | grep -q '\b0 allocs/op'; then
	echo "check: validating v2 block ingest allocates per block" >&2
	exit 1
fi

# Streaming ingest decodes each event once, straight into the block the
# sweep reads. Gate the consequence: feeding an archive through a live
# session in 64 KiB chunks allocates at most 25 B/event more than the
# lazy post-mortem analysis of the same bytes allocates — the
# streaming-ingest cost as BENCHMARK.json defines it, a difference — and
# at most 1.25x the bytes per event the session is known to need, the
# lazy analysis itself at most 1.25x the bytes per event it is known to
# need (the sweep decodes into the blocks it releases; phase detection
# copies nothing per candidate; the ledger grows in pages), and
# the lazy analysis of an archive of many short ranks at most 1.25x the
# eager one, and the post-mortem path on a communication-bound archive —
# eager load, analysis, the three artifact writes — at most 1.25x the
# bytes per event it is known to need (files borrowed, logs sized by one
# counting pass, no span list, no reflective render), and the same
# archive through the analysis service at most 1.25x that plus the data
# itself, the bundle and its inflated files, once each. Run without
# -race, like the two zero-alloc gates above: the budgets are about the
# program's own bytes.
echo "== live ingest, lazy, eager and served analysis allocation budgets"
go test -count=1 -run 'TestLiveIngestAllocBudget$|TestLazyAllocPerEventBudget$|TestLazyShortRanksAllocBudget$|TestEagerAllocPerEventBudget$|TestServedAllocPerEventBudget$' .
# A collective instance allocates nothing of its own: four times the
# instances, on the world and on a sub-communicator, rooted and not,
# allocate the same object count within a small constant.
go test -count=1 -run 'TestCollectiveAllocsFlatInInstances$' ./internal/replay
# The intake's own byte counts — one allocation per inflated entry, none
# for the digest, at most 1 MB on a declared length alone — skip under
# the race detector, which drops archive/zip's pooled inflaters at random.
go test -count=1 -run 'TestDecodeZipAllocatesInflatedSizeOnce$|TestDigestBorrows$|TestSubmitBodyReadOnce$' ./internal/serve
# The analysis epilogue allocates in proportion to what it writes: a
# write into a written cube row allocates nothing and a new call node
# only the row written; the metric panel, the findings and a subtree
# total walk the metric tree in place; profile.Snapshot hands the series'
# sums over and phase.Snapshot cuts every phase's signatures from one
# string — so none of them allocates more for more metrics, series or
# phases. cube.Read, profile.Read, phase.Read, profile.Diff and
# ByMetahost allocate by what their input holds, not by the cube or
# bucket count it declares.
echo "== epilogue allocation gates"
go test -count=1 -run 'TestWritesAllocateByTouch$|TestTreeQueryAllocsFlatInMetrics$|TestReadDoesNotAmplifyDeclarations$|FuzzCubeRead$' ./internal/cube
go test -count=1 -run 'TestSnapshotAllocsFlatInSeries$|TestSnapshotSpendsAccumulator$|TestDiffAndByMetahostSizeRowsByValues$|FuzzProfileRead$' ./internal/profile
go test -count=1 -run 'TestSnapshotAllocsFlatInPhases$|FuzzPhaseRead$' ./internal/phase

echo "check: all green"

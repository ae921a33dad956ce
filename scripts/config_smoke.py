"""CI smoke for the declarative serving API.

Trains the tiny demo service, saves it as a bundle, then checks the
acceptance path end to end:

1. ``repro-ids serve --config examples/serve.toml --bundle <dir>
   --print-config`` emits JSON that parses back to a config equal to
   ``ServingConfig.from_file("examples/serve.toml")`` (lossless
   resolution round-trip);
2. the same config builds a *running* ``DetectionServer`` via
   ``from_config`` — events stream through it and the configured
   ``jsonl://`` sink lands alerts on disk;
3. the bundle records the config it was served with;
4. the shipped CLI, ``python -m repro.cli serve --config
   examples/serve.toml --bundle <dir>``, runs as a child process twice —
   on ``--input FILE`` (read to EOF) and on ``--input -`` fed through a
   pipe (tailed live) — and each run exits 0, reports ``processed N
   events`` and prints at least one ``ALERT`` line.

Run from the repository root:

    PYTHONPATH=src python scripts/config_smoke.py
"""

import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serving import DetectionServer, ServingConfig, serve_stream  # noqa: E402
from repro.serving.cli import serve_main  # noqa: E402
from repro.serving.demo import DEMO_BENIGN, DEMO_MALICIOUS, build_demo_service  # noqa: E402

CONFIG_FILE = REPO_ROOT / "examples" / "serve.toml"
#: Seconds one CLI child may take (loading the bundle dominates).
CLI_TIMEOUT = 120


def run_cli(bundle: Path, workdir: str, input_arg: str, stdin_text: str | None) -> str:
    """Run ``repro.cli serve`` as a child process; return its stdout.

    ``subprocess.run`` with a timeout reaps the child on every path.
    """
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    argv = [
        sys.executable, "-m", "repro.cli", "serve",
        "--config", str(CONFIG_FILE),
        "--bundle", str(bundle),
        "--input", input_arg,
    ]
    completed = subprocess.run(
        argv,
        input=stdin_text,
        capture_output=True,
        text=True,
        cwd=workdir,
        env=env,
        timeout=CLI_TIMEOUT,
    )
    assert completed.returncode == 0, (
        f"serve --input {input_arg} exited {completed.returncode}:\n{completed.stderr}"
    )
    return completed.stdout


def main() -> int:
    expected = ServingConfig.from_file(CONFIG_FILE)

    print("training the tiny demo service ...", flush=True)
    service = build_demo_service()

    with tempfile.TemporaryDirectory(prefix="config-smoke-") as workdir:
        bundle = Path(workdir) / "bundle"
        service.save(bundle)

        # 1. --print-config round-trip against the bundle
        captured = io.StringIO()
        code = serve_main(
            ["--config", str(CONFIG_FILE), "--bundle", str(bundle), "--print-config"],
            stdout=captured,
        )
        assert code == 0, f"--print-config exited {code}"
        resolved = ServingConfig.from_dict(json.loads(captured.getvalue()))
        assert resolved == expected, (
            f"resolved config does not round-trip:\n{resolved}\n!=\n{expected}"
        )
        print("--print-config output round-trips to an equal config")

        # 2. the config boots a real server (jsonl:// path is relative)
        os.chdir(workdir)
        server = DetectionServer.from_config(bundle, resolved)
        events = DEMO_BENIGN[:4] + DEMO_MALICIOUS * 2
        results = serve_stream(server, events)
        assert len(results) == len(events)
        assert server.metrics.alerts > 0, "malicious demo lines must alert"
        alerts_file = Path(workdir) / "alerts.jsonl"
        assert alerts_file.exists(), "configured jsonl:// sink must land on disk"
        assert server.sinks.failures == {}, server.sinks.snapshot()
        print(
            f"served {len(results)} events, {server.metrics.alerts} alerts "
            f"delivered through {len(server.sinks.sinks)} configured sinks"
        )

        # 3. the bundle now records the deployment it was served with
        reresolved = DetectionServer.from_config(bundle).config
        assert reresolved == expected, "bundle did not record its serving config"
        print("bundle metadata records the serving config")

        # 4. the shipped CLI, on a file and on a pipe
        lines = DEMO_BENIGN[:4] + DEMO_MALICIOUS * 2
        text = "".join(f"{line}\n" for line in lines)
        input_file = Path(workdir) / "events.log"
        input_file.write_text(text)
        for input_arg, stdin_text in ((str(input_file), None), ("-", text)):
            stdout = run_cli(bundle, workdir, input_arg, stdin_text)
            assert f"processed {len(lines)} events" in stdout, stdout
            alerts = [line for line in stdout.splitlines() if line.startswith("ALERT")]
            assert alerts, f"serve --input {input_arg} printed no ALERT line:\n{stdout}"
            print(f"repro.cli serve --input {input_arg}: {len(lines)} events, {len(alerts)} alerts")

    print("config smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env bash
# Examples smoke (ctest: examples_smoke): every narrative example and
# figure walkthrough runs to completion (multimedia_pipeline on its
# short smoke horizon; its default run lasts until the battery dies).
#
# Usage: examples_smoke.sh BIN_DIR

set -euo pipefail

bin="$1"

"$bin/quickstart" > /dev/null
"$bin/battery_explorer" --trace --cycles 3 > /dev/null
"$bin/sensor_node" --jobs 2 > /dev/null
"$bin/multimedia_pipeline" --smoke > /dev/null
"$bin/fig4_slack_recovery" > /dev/null
"$bin/fig5_feasibility_trace" > /dev/null
echo "examples smoke: OK"

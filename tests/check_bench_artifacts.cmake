# Runs one bench binary end-to-end in a scratch directory and asserts its
# artifacts land: the result CSV, the provenance manifest, the
# stage-timing CSV, and the drift reports. Invoked by the
# `bench_artifacts` ctest entry; the model cache lives in the build tree
# so only the first run pays for pretraining.
#
# Expected -D variables: BENCH_EXE, WORK_DIR, CACHE_DIR, BENCH_NAME,
# CSV_FILE.
foreach(var BENCH_EXE WORK_DIR CACHE_DIR BENCH_NAME CSV_FILE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_bench_artifacts: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}/bench_out")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "EDGESTAB_CACHE=${CACHE_DIR}" "${BENCH_EXE}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "bench exited with ${bench_rc}")
endif()

set(out "${WORK_DIR}/bench_out")
foreach(artifact "${CSV_FILE}" "${BENCH_NAME}.meta.json")
  if(NOT EXISTS "${out}/${artifact}")
    message(FATAL_ERROR "missing artifact ${out}/${artifact}")
  endif()
endforeach()

# The manifest must be non-trivial (schema header present).
file(READ "${out}/${BENCH_NAME}.meta.json" meta)
if(NOT meta MATCHES "edgestab-run-manifest-v1")
  message(FATAL_ERROR "manifest ${out}/${BENCH_NAME}.meta.json lacks schema")
endif()

# The stage-timing CSV must hold its header plus at least one stage row,
# and the manifest must carry the same histograms as stage_timing_ms.
set(timing "${out}/${BENCH_NAME}_stage_timing.csv")
if(NOT EXISTS "${timing}")
  message(FATAL_ERROR "missing ${timing}")
endif()
file(STRINGS "${timing}" timing_rows)
list(LENGTH timing_rows timing_row_count)
list(GET timing_rows 0 timing_header)
if(NOT timing_header MATCHES "^stage,count," OR timing_row_count LESS 2)
  message(FATAL_ERROR "${timing} lacks a header and a stage row")
endif()
if(NOT meta MATCHES "\"stage_timing_ms\"")
  message(FATAL_ERROR "manifest lacks stage_timing_ms")
endif()

set(drift_json "${out}/${BENCH_NAME}.drift.json")
set(drift_html "${out}/${BENCH_NAME}.drift.html")
if(NOT EXISTS "${drift_json}")
  message(FATAL_ERROR "bench produced no ${drift_json}")
endif()
file(READ "${drift_json}" drift_doc)
if(NOT drift_doc MATCHES "edgestab-drift-report-v1")
  message(FATAL_ERROR "${drift_json} lacks the drift report schema")
endif()
if(NOT EXISTS "${drift_html}")
  message(FATAL_ERROR "bench produced no ${drift_html}")
endif()
# The manifest must carry the drift digests bench::Run folded in.
if(NOT meta MATCHES "drift_report")
  message(FATAL_ERROR "manifest lacks the drift_report digest")
endif()

message(STATUS "bench artifacts OK in ${out}")

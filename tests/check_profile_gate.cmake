# Hermetic end-to-end check of the hot-path profiler.
#
# Flow (all inside WORK_DIR, smoke-size rig):
#   1. Warm-up/reference run WITHOUT --profile: warms the model cache
#      (a cold run pretrains, which allocates differently than a cached
#      load, so only warmed runs are comparable) and snapshots the CSVs
#      as the observe-never-alter reference.
#   2. Run --profile --threads 1: profile.json + profile.html must land,
#      the JSON must carry the edgestab-profile-v1 schema, the hotspot
#      table must hit stdout, and every CSV must be byte-identical to
#      the unprofiled reference.
#   3. Run --profile --threads 2: the profile digest and the allocation
#      totals must be bit-identical to the single-threaded run (the
#      lane-merge determinism contract), CSVs again byte-identical.
#      Across steps 1-3 the stage-timing CSV's stage and count columns
#      must be equal: every stage span is also a profile scope, and
#      profiler call counts are thread-invariant.
#   4. Promote the candidate BENCH_fig3.json — which must contain the
#      profile headline metrics — and re-run profiled: `sentinel
#      compare` must exit 0 with zero regressed metrics.
#
# Expected -D variables: BENCH_EXE, SENTINEL_EXE, WORK_DIR, CACHE_DIR.
foreach(var BENCH_EXE SENTINEL_EXE WORK_DIR CACHE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_profile_gate: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/baselines")

set(smoke_env "EDGESTAB_CACHE=${CACHE_DIR}" "EDGESTAB_RIG_OBJECTS=2")

function(run_bench label out_var)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${smoke_env} "${BENCH_EXE}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${label}: bench exited with ${rc}\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Pull the digest and the allocation totals out of a profile.json.
function(read_profile path digest_var count_var bytes_var)
  file(READ "${path}" doc)
  if(NOT doc MATCHES "\"schema\":\"edgestab-profile-v1\"")
    message(FATAL_ERROR "${path} lacks the edgestab-profile-v1 schema")
  endif()
  if(NOT doc MATCHES "\"digest\":\"([0-9a-f]+)\"")
    message(FATAL_ERROR "${path} has no digest field")
  endif()
  set(${digest_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
  if(NOT doc MATCHES "\"totals\":{\"alloc_count\":([0-9]+),\"alloc_bytes\":([0-9]+)")
    message(FATAL_ERROR "${path} has no allocation totals")
  endif()
  set(${count_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
  set(${bytes_var} "${CMAKE_MATCH_2}" PARENT_SCOPE)
endfunction()

function(check_csvs_match label)
  file(GLOB ref_csvs "${WORK_DIR}/ref_csv/*.csv")
  if(ref_csvs STREQUAL "")
    message(FATAL_ERROR "${label}: no reference CSVs were captured")
  endif()
  foreach(ref ${ref_csvs})
    get_filename_component(csv_name "${ref}" NAME)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
        "${ref}" "${WORK_DIR}/bench_out/${csv_name}"
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
        "${label}: ${csv_name} differs from the unprofiled reference — "
        "profiling must observe, never alter")
    endif()
  endforeach()
endfunction()

# The (stage, count) columns of fig3_stage_timing.csv; the timing columns
# differ between ANY two runs and are left out.
function(read_stage_counts out_var)
  file(STRINGS "${WORK_DIR}/bench_out/fig3_stage_timing.csv" rows)
  set(counts "")
  foreach(row ${rows})
    if(NOT row MATCHES "^([^,]+),([^,]+),")
      message(FATAL_ERROR "malformed stage-timing row: ${row}")
    endif()
    list(APPEND counts "${CMAKE_MATCH_1},${CMAKE_MATCH_2}")
  endforeach()
  set(${out_var} "${counts}" PARENT_SCOPE)
endfunction()

function(check_stage_counts_match label)
  read_stage_counts(counts)
  if(NOT counts STREQUAL ref_counts)
    message(FATAL_ERROR
      "${label}: fig3_stage_timing.csv stage/count columns differ from "
      "the unprofiled reference\nref: ${ref_counts}\ngot: ${counts}")
  endif()
endfunction()

# --- 1. warm-up + unprofiled reference -----------------------------------
# fig3[a-d]_*.csv are the result tables; fig3_stage_timing.csv is
# measured latency and differs between ANY two runs, so it is no
# byte-identity subject (only its stage and count columns are compared).
run_bench("reference run" ref_out --threads 1)
read_stage_counts(ref_counts)
list(LENGTH ref_counts ref_count_rows)
if(ref_count_rows LESS 2)
  message(FATAL_ERROR "reference run wrote no stage-timing rows")
endif()
file(GLOB plain_csvs "${WORK_DIR}/bench_out/fig3[abcd]_*.csv")
if(plain_csvs STREQUAL "")
  message(FATAL_ERROR "reference run produced no fig3 CSVs")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}/ref_csv")
file(COPY ${plain_csvs} DESTINATION "${WORK_DIR}/ref_csv")

# --- 2. profiled single-threaded run -------------------------------------
run_bench("profiled t1 run" t1_out --threads 1 --profile)
if(NOT EXISTS "${WORK_DIR}/bench_out/fig3.profile.json")
  message(FATAL_ERROR "profiled run wrote no bench_out/fig3.profile.json")
endif()
if(NOT EXISTS "${WORK_DIR}/bench_out/fig3.profile.html")
  message(FATAL_ERROR "profiled run wrote no bench_out/fig3.profile.html")
endif()
if(NOT t1_out MATCHES "\\[profile\\]")
  message(FATAL_ERROR "profiled run printed no hotspot table:\n${t1_out}")
endif()
read_profile("${WORK_DIR}/bench_out/fig3.profile.json"
  t1_digest t1_alloc_count t1_alloc_bytes)
if(t1_alloc_count EQUAL 0)
  message(FATAL_ERROR "profiled run attributed zero allocations")
endif()
check_csvs_match("profiled t1 run")
check_stage_counts_match("profiled t1 run")

# --- 3. profiled two-thread run: lane-merge determinism ------------------
run_bench("profiled t2 run" t2_out --threads 2 --profile)
read_profile("${WORK_DIR}/bench_out/fig3.profile.json"
  t2_digest t2_alloc_count t2_alloc_bytes)
if(NOT t1_digest STREQUAL t2_digest)
  message(FATAL_ERROR
    "profile digest differs across thread counts: "
    "t1=${t1_digest} t2=${t2_digest}")
endif()
if(NOT t1_alloc_count EQUAL t2_alloc_count OR
   NOT t1_alloc_bytes EQUAL t2_alloc_bytes)
  message(FATAL_ERROR
    "allocation totals differ across thread counts: "
    "t1=${t1_alloc_count}/${t1_alloc_bytes} "
    "t2=${t2_alloc_count}/${t2_alloc_bytes}")
endif()
check_csvs_match("profiled t2 run")
check_stage_counts_match("profiled t2 run")

# --- 4. profile metrics must survive a clean sentinel compare ------------
file(READ "${WORK_DIR}/bench_out/BENCH_fig3.json" candidate)
foreach(metric profile_alloc_bytes_total profile_alloc_count profile_excl_ms)
  if(NOT candidate MATCHES "${metric}")
    message(FATAL_ERROR "BENCH_fig3.json lacks the ${metric} metric")
  endif()
endforeach()
file(COPY "${WORK_DIR}/bench_out/BENCH_fig3.json"
  DESTINATION "${WORK_DIR}/baselines")

run_bench("compare run" cmp_out --threads 2 --profile)
execute_process(
  COMMAND "${SENTINEL_EXE}" compare --bench fig3 --rel-tol 0.5
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "profiled compare exited ${rc}:\n${out}${err}")
endif()
if(NOT out MATCHES "0 regressed")
  message(FATAL_ERROR "profiled compare reported regressions:\n${out}")
endif()

message(STATUS "profile gate OK in ${WORK_DIR}")

# Builds the tree with -DEDGESTAB_ASAN=ON in a child build tree and runs
# the fuzz harnesses — decoders (test_codec_fuzz) and the run-state
# parsers (test_state_fuzz) — under AddressSanitizer + UBSan. The
# harnesses assert every corrupt input is handled; this run adds the
# memory-safety half of the claim — no heap overrun, use-after-free,
# undefined shift or out-of-range float cast survives a corrupt input.
# It also runs the eval-forward arena tests (test_nn, EvalArena.*): the
# arena writes through raw offsets into buffers reused across calls of
# different batch sizes, so an offset bug is a heap overrun here. The
# same holds for the develop glue's raw-pointer loops (test_develop_glue:
# the plane-major u8/float conversions, the one-pass model input, the
# plane-major saturation and the per-lane tone-curve cache), whose
# bit-for-bit reference tests run here too. So does the counter-based
# sensor noise (test_sensor_noise): its scalar and AVX2 loops index raw
# buffers with a scalar tail, and its scalar twin converts between
# floats and integers, where an out-of-range value is undefined.
# -fno-sanitize-recover=all makes the first finding abort the binary, so
# any report fails the test.
#
# Expected -D variables: SOURCE_DIR, WORK_DIR.
foreach(var SOURCE_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_asan_smoke: ${var} not set")
  endif()
endforeach()

set(build_dir "${WORK_DIR}/asan_build")
message(STATUS "==== asan_smoke: configure ====")
execute_process(
  COMMAND ${CMAKE_COMMAND} -S "${SOURCE_DIR}" -B "${build_dir}"
    -DCMAKE_BUILD_TYPE=Release
    -DEDGESTAB_ASAN=ON
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "asan_smoke: configure failed with ${rc}")
endif()

message(STATUS "==== asan_smoke: build the fuzz harnesses ====")
include(ProcessorCount)
ProcessorCount(ncpu)
if(ncpu EQUAL 0)
  set(ncpu 2)
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} --build "${build_dir}"
    --target test_codec_fuzz test_state_fuzz test_nn test_develop_glue
      test_sensor_noise --parallel ${ncpu}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "asan_smoke: build failed with ${rc}")
endif()

set(filter_test_codec_fuzz "*")
set(filter_test_state_fuzz "*")
set(filter_test_nn "EvalArena.*")
set(filter_test_develop_glue "*")
set(filter_test_sensor_noise "*")
foreach(harness test_codec_fuzz test_state_fuzz test_nn test_develop_glue
        test_sensor_noise)
  message(STATUS "==== asan_smoke: run ${harness} under ASan/UBSan ====")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
      "ASAN_OPTIONS=halt_on_error=1:detect_leaks=0"
      "${build_dir}/tests/${harness}" "--gtest_filter=${filter_${harness}}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "asan_smoke: ${harness} exited with ${rc} (an ASan/UBSan report or "
      "test failure fails the run; see output above)")
  endif()
endforeach()

message(STATUS "asan_smoke OK — fuzz harnesses, arena, develop-glue and sensor-noise tests clean under ASan/UBSan")

# Golden-output check for one modeled-figure program: run it with its
# default arguments in a fresh working directory (the instrumented benches
# drop trace files into the cwd) and compare its stdout byte for byte with
# the committed file under tests/golden/.
#
#   cmake -DPROGRAM=<exe> -DGOLDEN=<file> -DWORKDIR=<dir> -P golden.cmake
#
# Registered per program by tests/CMakeLists.txt.  Regenerate a golden file
# only for an intended change to the modeled figures, from a scratch cwd:
#   PAUTOCLASS_TRACE=0 <build>/bench/<program> \
#     > tests/golden/<program>.txt
foreach(var PROGRAM GOLDEN WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(actual "${WORKDIR}/stdout.txt")
execute_process(COMMAND "${PROGRAM}"
  WORKING_DIRECTORY "${WORKDIR}"
  OUTPUT_FILE "${actual}"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} failed: ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
  "${actual}" "${GOLDEN}"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  file(READ "${actual}" text)
  message(FATAL_ERROR
    "stdout of ${PROGRAM} differs from ${GOLDEN}\n"
    "(actual output kept at ${actual}):\n${text}")
endif()

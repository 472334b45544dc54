# Runs each of HARNESSES (a ;-list of binaries) with FLAG, an option no
# harness reads, and fails unless every one exits 2 and names the flag on
# stderr. Usage:
#   cmake -DHARNESSES="a;b" -DFLAG=--bogus=1 -P expect_unknown_flag.cmake
string(REGEX REPLACE "=.*" "" flag_name "${FLAG}")
foreach(harness IN LISTS HARNESSES)
  execute_process(COMMAND "${harness}" "${FLAG}"
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "${harness} ${FLAG}: exit ${code}, expected 2")
  endif()
  string(FIND "${err}" "unknown flag ${flag_name}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "${harness} ${FLAG}: stderr does not name "
                        "${flag_name}:\n${err}")
  endif()
endforeach()
